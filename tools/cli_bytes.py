"""Exit codes and output digests of the ``magprop`` CLI over one fixed argv list.

Usage:

    python3 tools/cli_bytes.py [--src DIR] > bytes.txt

Imports ``magprop`` from ``--src`` (default: the ``src`` directory of the
tree this script sits in), runs ``magprop.cli.run`` in this process on each
argv of ``ARGVS`` and prints one line per argv: the exit code, the md5 of
stdout, of stderr and of the ``--out`` file ("-" when the argv writes
none), then the argv. Run it on two trees and diff the two outputs to see
which commands a change moved; ``--src`` lets the script of one tree read
the package of another.

The list covers every subcommand and its ``--help``, exits 0 to 3, ``--out``
to a file and to a missing directory, and the extreme values that once
escaped as a traceback or a NaN. ``{out}`` in an argv stands for a file in
a fresh temporary directory and ``{missing}`` for ``MISSING_DIR``, a fixed
path that must not exist, so that the error message that names it is the
same on every run. Help text is formatted ``COLUMNS`` wide.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

MISSING_DIR = "/nonexistent-magprop-cli-bytes"
COLUMNS = "100"

ARGVS = [
    # usage: exit 1, and the help and version texts (SystemExit 0)
    [],
    ["--help"],
    ["--version"],
    ["no-such-command"],
    ["propagator"],
    ["propagator", "--t", "1.0", "--k", "1.0", "--bogus"],
    ["det", "--t", "1.0", "--k", "1.0", "--method", "magic", "--order", "10"],
    *([cmd, "--help"] for cmd in ("propagator", "spectrum", "det", "mmatrix", "tgen",
                                  "oracle", "sweep")),
    # propagator
    ["propagator", "--t", "1.0", "--k", "1.0"],
    ["propagator", "--t", "0.8", "--k", "0.6", "--y1", "0.3", "--y2", "-0.1", "--y3", "0.5"],
    ["propagator", "--t", "1", "--k", "-1e-3"],
    ["propagator", "--t", "2.5", "--k", "0"],
    ["propagator", "--t", "1.5707963267948966", "--k", "1.0"],
    ["propagator", "--t", "1.0", "--k", "1.0", "--out", "{out}"],
    # spectrum
    ["spectrum", "--t", "1.0", "--k", "1.0", "--n", "256", "--count", "3"],
    ["spectrum", "--t", "0.7", "--k", "-2.5", "--n", "64", "--count", "5"],
    ["spectrum", "--t", "1.0", "--k", "1.0", "--n", "64", "--count", "0"],
    ["spectrum", "--t", "1.0", "--k", "1.0", "--n", "64", "--count", "2", "--out", "{out}"],
    # det: the product route at small and large orders, and the dense route
    *(["det", "--t", "1.0", "--k", kt, "--method", "product", "--order", order]
      for kt in ("0.3", "1.3", "3", "10")
      for order in ("1", "2", "4", "10", "37", "100", "10000")),
    ["det", "--t", "0.9", "--k", "-2", "--method", "product", "--order", "1000"],
    ["det", "--t", "1.0", "--k", "0", "--method", "product", "--order", "100"],
    ["det", "--t", "0.9", "--k", "1.0", "--method", "dense", "--order", "32"],
    ["det", "--t", "1.0", "--k", "1.0", "--method", "product", "--order", "0"],
    ["det", "--t", "1.0", "--k", "1.0", "--method", "product", "--order", str(10**13)],
    ["det", "--t", "1.0", "--k", "1.0", "--method", "dense", "--order", "64", "--out", "{out}"],
    # mmatrix, closed and numerical
    ["mmatrix", "--t", "1.0", "--k", "1.0"],
    ["mmatrix", "--t", "2.5", "--k", "0"],
    ["mmatrix", "--t", "1", "--k", "1", "--n", "512"],
    ["mmatrix", "--t", "0.9", "--k", "-2", "--n", "64"],
    ["mmatrix", "--t", "1", "--k", "0", "--n", "16"],
    ["mmatrix", "--t", "1.5", "--k", "200", "--n", "256"],
    ["mmatrix", "--t", "1.2075", "--k", "1.3", "--n", "2"],
    ["mmatrix", "--t", "1.0", "--k", "1.0", "--n", "32", "--out", "{out}"],
    # tgen
    ["tgen", "--t", "1.0", "--k", "1.0", "--y1", "0.2", "--y2", "0.1"],
    ["tgen", "--t", "1.0", "--k", "1.0", "--y1", "0.2", "--y2", "0.1",
     "--bump", "0", "0.5", "0.4", "0.1"],
    ["tgen", "--t", "0.9", "--k", "-2", "--y3", "0.3", "--n", "128",
     "--bump", "0", "0.5", "0.4", "0.1", "--bump", "3", "-0.2", "0.1", "0.05"],
    ["tgen", "--t", "1.0", "--k", "1.0", "--bump", "5", "1.0", "0.1", "0.05"],
    ["tgen", "--t", "1.0", "--k", "1.0", "--bump", "0", "abc", "0.1", "0.05"],
    ["tgen", "--t", "1.0", "--k", "1.0", "--bump", "0", "0.5", "0.4", "0.1", "--out", "{out}"],
    # oracle
    ["oracle"],
    ["oracle", "--k", "0"],
    ["oracle", "--slices", "2"],
    ["oracle", "--k", "1", "--eps0", "-5"],
    ["oracle", "--slices", "64", "--out", "{out}"],
    # sweep
    ["sweep", "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "3",
     "--k-min", "0.0", "--k-max", "1.0", "--k-steps", "2", "--y1", "0.3", "--y2", "-0.2"],
    ["sweep", "--t-min", "1.0", "--t-max", "1.5707963267948966", "--t-steps", "2",
     "--k-min", "1.0", "--k-max", "1.0", "--k-steps", "1"],
    ["sweep", "--t-min", "0.5", "--t-max", "1.0", "--t-steps", "0",
     "--k-min", "0.0", "--k-max", "1.0", "--k-steps", "2"],
    ["sweep", "--t-min", "0.5", "--t-max", "0.5", "--t-steps", "1",
     "--k-min", "0.0", "--k-max", "0.0", "--k-steps", "1", "--out", "{out}"],
    # extreme values, and an --out that cannot be written
    ["det", "--t", "1.0", "--k", "nan", "--method", "product", "--order", "10"],
    ["spectrum", "--t", "1.0", "--k", "inf", "--n", "64", "--count", "3"],
    ["propagator", "--t", "1.0", "--k", "1.0", "--out", "{missing}/out.json"],
    ["propagator", "--t", "1e308", "--k", "1e308"],
    ["tgen", "--t", "1", "--k", "1", "--bump", "0", "nan", "0.5", "0.1"],
    ["tgen", "--t", "1", "--k", "1", "--bump", "0", "inf", "0.5", "0.1"],
    ["propagator", "--t", "-inf", "--k", "1"],
    ["tgen", "--t", "1", "--k", "1", "--bump", "0", "-inf", "0.5", "0.1"],
    ["tgen", "--t", "0.7", "--k", "1e308", "--n", "16", "--bump", "0", "0.5", "0.0", "0.1"],
    ["oracle", "--t", "1e308", "--k", "1e-308", "--slices", "8"],
    ["sweep", "--t-min", "0.7", "--t-max", "1.0", "--t-steps", "2",
     "--k-min", "1e308", "--k-max", "1.0", "--k-steps", "2"],
    ["mmatrix", "--t", "1e308", "--k", "0.7", "--n", "16"],
    ["spectrum", "--t", "1.0", "--k", "1e200", "--n", "64", "--count", "3"],
    ["det", "--t", "1.0", "--k", "1e200", "--method", "product", "--order", "10"],
]


def _md5(data) -> str:
    if data is None:
        return "-"
    if isinstance(data, str):
        data = data.encode()
    return hashlib.md5(data).hexdigest()


def run_one(cli, argv: list, workdir: str) -> tuple:
    """(exit code, stdout, stderr, --out bytes or None) of one argv, with
    {out} and {missing} filled in. An exception that escapes ``cli.run``
    is reported as exit "exc" with its traceback on stderr."""
    out_path = os.path.join(workdir, "out")
    argv = [a.format(out=out_path, missing=MISSING_DIR) for a in argv]
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
        except Exception:
            code = "exc"
            traceback.print_exc()
    written = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            written = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), written


def run_all(cli) -> list:
    """run_one over every argv of ARGVS, in order."""
    if os.path.exists(MISSING_DIR):
        raise RuntimeError(f"{MISSING_DIR} exists; the --out failure needs it missing")
    with tempfile.TemporaryDirectory() as workdir:
        return [run_one(cli, argv, workdir) for argv in ARGVS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the magprop package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    os.environ["COLUMNS"] = COLUMNS
    import magprop.cli as cli

    for argv_, (code, out, err, written) in zip(ARGVS, run_all(cli)):
        print(code, _md5(out), _md5(err), _md5(written), " ".join(argv_))
    return 0


if __name__ == "__main__":
    sys.exit(main())
