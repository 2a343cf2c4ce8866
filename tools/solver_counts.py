"""Print the shared root finder's and minimizer's calls and evaluations per
solver task, and the twisted-product kernel's calls and terms per suite.

Runs the default `orlicz-lab verify` in process, suite by suite, with
`young._find_root` and `young._golden_min` wrapped from outside (in `young`
and in `space`, which imports them by name) and `algebra._kernel_sum` and
`space._amemiya_batch` wrapped likewise.  The first table has one line per
root-finder task: the calls, the evaluations of f (each one call of f on
all elements of a solve), the evaluations per call, and how many of the
calls read their brackets from a conjugate's density table and how many
galloped (the table's own evaluation of the density is not counted: it
is made outside the root finder, once per conjugate).  The second has
the same for each golden-section task, counting evaluations of h.  A solve
nested inside another solve's f counts under its own task.  Then comes the
number of Amemiya rows that searched again in a wider bracket (the rows of
its golden searches less the rows it was given).  The last table has one
line per suite: the `_kernel_sum` calls and their terms (the support pairs
summed, over all vectors of each batch).  The last line counts the laws
that passed; the exit status is 1 unless every law passes.
Run from anywhere:

    python tools/solver_counts.py
"""

import collections
import inspect
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orliczlab import algebra, harness, space, young  # noqa: E402
from orliczlab.specs import SuiteConfig  # noqa: E402


def _table(head: str, calls: collections.Counter, evals: collections.Counter, tabled=None) -> None:
    extra = f"{'tabled':>8}{'galloped':>10}" if tabled is not None else ""
    print(f"{'task':<40}{'calls':>8}{head:>10}{'per call':>10}{extra}")
    for task in sorted(calls):
        if tabled is not None:
            extra = f"{tabled[task]:>8}{calls[task] - tabled[task]:>10}"
        print(f"{task:<40}{calls[task]:>8}{evals[task]:>10}{evals[task] / calls[task]:>10.1f}{extra}")


def main() -> int:
    calls, evals, tabled = collections.Counter(), collections.Counter(), collections.Counter()
    golden_calls, golden_evals = collections.Counter(), collections.Counter()
    amemiya_rows = collections.Counter()
    kernel_calls = collections.Counter()
    kernel_terms = collections.Counter()
    find_root, golden_min = young._find_root, young._golden_min
    kernel_sum, amemiya_batch = algebra._kernel_sum, space._amemiya_batch
    suite = None

    def counting(solve, n_calls, n_evals):
        signature = inspect.signature(solve)

        def counted(f, *args, **kwargs):
            bound = signature.bind(f, *args, **kwargs).arguments
            task = bound["task"]
            n_calls[task] += 1
            tabled[task] += bound.get("table") is not None

            def g(x):
                n_evals[task] += 1
                return f(x)

            if task == "minimizing the Amemiya objective":
                amemiya_rows["searched"] += len(bound["a"])
            return solve(g, *args, **kwargs)

        return counted

    def counted_amemiya(pair, A, centre):
        amemiya_rows["given"] += len(centre)
        return amemiya_batch(pair, A, centre)

    def counted_kernel(outer, inner, place, kernel=None):
        kernel_calls[suite] += 1
        kernel_terms[suite] += int(outer.sizes @ inner.sizes)
        return kernel_sum(outer, inner, place, kernel)

    young._find_root = space._find_root = counting(find_root, calls, evals)
    young._golden_min = space._golden_min = counting(golden_min, golden_calls, golden_evals)
    algebra._kernel_sum, space._amemiya_batch = counted_kernel, counted_amemiya
    records = []
    try:
        cfg = SuiteConfig()
        for suite in harness.SUITE_ORDER:
            records += harness.run_suite(cfg, suite)
    finally:
        young._find_root = space._find_root = find_root
        young._golden_min = space._golden_min = golden_min
        algebra._kernel_sum, space._amemiya_batch = kernel_sum, amemiya_batch
    _table("f-evals", calls, evals, tabled)
    print()
    _table("h-evals", golden_calls, golden_evals)
    searched_again = amemiya_rows["searched"] - amemiya_rows["given"]
    print(f"\nAmemiya rows searched again: {searched_again} of {amemiya_rows['given']}")
    print(f"\n{'suite':<40}{'kernel calls':>14}{'terms':>10}")
    for name in kernel_calls:
        print(f"{name:<40}{kernel_calls[name]:>14}{kernel_terms[name]:>10}")
    total = sum(kernel_calls.values()), sum(kernel_terms.values())
    print(f"{'total':<40}{total[0]:>14}{total[1]:>10}")
    passed = sum(r.verdict == "pass" for r in records)
    print(f"{passed}/{len(records)} laws pass")
    return 0 if passed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
