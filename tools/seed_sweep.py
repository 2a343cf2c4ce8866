"""Run the default `orlicz-lab verify` at seeds 1..N and print each law's
failing seeds.

Every seed runs all suites in process, at the default config with only the
seed changed.  Each law that failed at some seed gets one line, naming its
suite and law and the seeds where it failed; the last line counts the seeds
at which every law passed.  The exit status is 1 if any law failed at any
seed.  N is 20 unless given.  Run from anywhere:

    python tools/seed_sweep.py [N]
"""

import argparse
import collections
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from orliczlab.harness import run_all  # noqa: E402
from orliczlab.specs import SuiteConfig  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", nargs="?", type=int, default=20, help="sweep seeds 1..count (default 20)")
    count = parser.parse_args(argv).count
    failed = collections.defaultdict(list)  # (suite, case) -> failing seeds
    for seed in range(1, count + 1):
        for r in run_all(SuiteConfig(seed=seed)):
            if r.verdict != "pass":
                failed[r.suite, r.case].append(seed)
    for (suite, case), seeds in sorted(failed.items()):
        print(f"{suite}/{case} fails at seeds {', '.join(map(str, seeds))}")
    clean = count - len({s for seeds in failed.values() for s in seeds})
    print(f"every law passes at {clean} of seeds 1..{count}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
