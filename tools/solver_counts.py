"""Print the shared root finder's calls and f-evaluations per solver task.

Runs the default `orlicz-lab verify` in process, with `young._find_root`
wrapped from outside (in `young` and in `space`, which imports it by
name), and prints one line per task: the calls, the evaluations of f
(each one call of f on all elements of a solve), and the evaluations per
call.  A solve nested inside another solve's f counts under its own
task.  The last line counts the laws that passed.  Run from anywhere:

    python tools/solver_counts.py
"""

import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orliczlab import harness, space, young  # noqa: E402


def main() -> None:
    calls = collections.Counter()
    evals = collections.Counter()
    find_root = young._find_root

    def counted(f, targets, cap, task):
        calls[task] += 1

        def g(x):
            evals[task] += 1
            return f(x)

        return find_root(g, targets, cap, task)

    young._find_root = space._find_root = counted
    try:
        records = harness.run_all(harness.SuiteConfig())
    finally:
        young._find_root = space._find_root = find_root
    print(f"{'task':<40}{'calls':>8}{'f-evals':>10}{'per call':>10}")
    for task in sorted(calls):
        print(f"{task:<40}{calls[task]:>8}{evals[task]:>10}{evals[task] / calls[task]:>10.1f}")
    passed = sum(r.verdict == "pass" for r in records)
    print(f"{passed}/{len(records)} laws pass")


if __name__ == "__main__":
    main()
