#!/usr/bin/env python3
"""Run the staged two-atom construction at desk scale and re-verify it.

Starting from the monoid generated by 1/2 and 1/3, each stage picks the
reducible elements below the value bound that cannot yet be written as
a sum of two atoms and adjoins, for each, a fresh pair of atoms summing
to it.  The build is written to JSON and then reloaded and verified:
the smallest nonzero element is still 1/3, no adjoined atom has become
reducible, and every covered reducible now has a length-2
factorization.  Both steps run through the `puiseux` command line, so
its output, errors and exit codes are those of `puiseux bifurcus` and
`puiseux verify-bifurcus`.
"""

import argparse
import tempfile
from pathlib import Path

from puiseux import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--stages", default="2",
                    help="number of adjunction stages (default %(default)s)")
    ap.add_argument("--bound", default="3/2",
                    help="value bound for reducibles (default %(default)s)")
    ap.add_argument("--out", default=None,
                    help="keep the staged build as JSON at this path")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or str(Path(tmp) / "staged.json")
        code = cli.main(["bifurcus", "--stages", args.stages,
                         "--bound", args.bound, "--out", out])
        if code:
            return code
        return cli.main(["verify-bifurcus", "--staged", out,
                         "--bound", args.bound])


if __name__ == "__main__":
    raise SystemExit(main())
