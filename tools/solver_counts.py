"""Print the shared root finder's calls and f-evaluations per solver task,
and the twisted-product kernel's calls and terms per suite.

Runs the default `orlicz-lab verify` in process, suite by suite, with
`young._find_root` wrapped from outside (in `young` and in `space`, which
imports it by name) and `algebra._kernel_sum` wrapped likewise.  The first
table has one line per task: the calls, the evaluations of f (each one
call of f on all elements of a solve), and the evaluations per call.  A
solve nested inside another solve's f counts under its own task.  The
second table has one line per suite: the `_kernel_sum` calls and their
terms (the support pairs summed, over all vectors of each batch).  The
last line counts the laws that passed.  Run from anywhere:

    python tools/solver_counts.py
"""

import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orliczlab import algebra, harness, space, young  # noqa: E402


def main() -> None:
    calls = collections.Counter()
    evals = collections.Counter()
    kernel_calls = collections.Counter()
    kernel_terms = collections.Counter()
    find_root, kernel_sum = young._find_root, algebra._kernel_sum
    suite = None

    def counted(f, targets, cap, task):
        calls[task] += 1

        def g(x):
            evals[task] += 1
            return f(x)

        return find_root(g, targets, cap, task)

    def counted_kernel(outer, inner, place, kernel=None):
        kernel_calls[suite] += 1
        kernel_terms[suite] += int(outer.sizes @ inner.sizes)
        return kernel_sum(outer, inner, place, kernel)

    young._find_root = space._find_root = counted
    algebra._kernel_sum = counted_kernel
    records = []
    try:
        cfg = harness.SuiteConfig()
        for suite in harness.SUITE_ORDER:
            records += harness.run_suite(cfg, suite)
    finally:
        young._find_root = space._find_root = find_root
        algebra._kernel_sum = kernel_sum
    print(f"{'task':<40}{'calls':>8}{'f-evals':>10}{'per call':>10}")
    for task in sorted(calls):
        print(f"{task:<40}{calls[task]:>8}{evals[task]:>10}{evals[task] / calls[task]:>10.1f}")
    print(f"\n{'suite':<40}{'kernel calls':>14}{'terms':>10}")
    for name in kernel_calls:
        print(f"{name:<40}{kernel_calls[name]:>14}{kernel_terms[name]:>10}")
    total = sum(kernel_calls.values()), sum(kernel_terms.values())
    print(f"{'total':<40}{total[0]:>14}{total[1]:>10}")
    passed = sum(r.verdict == "pass" for r in records)
    print(f"{passed}/{len(records)} laws pass")


if __name__ == "__main__":
    main()
