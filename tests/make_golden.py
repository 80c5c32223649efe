"""Regenerate the golden trace files.  Run from the repository root:

    python3 tests/make_golden.py
    python3 tests/make_golden.py --check

Only rerun this when an intentional format or algorithm change invalidates
the committed fixtures; test_golden.py byte-compares against these files.
--check rebuilds every file in memory and writes nothing.  It prints
`same` or `moved` for each file; a moved trace names the header keys and
data columns that differ, and a moved digest file the workloads.  It exits
1 if any file moved.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _fixtures import (  # noqa: E402
    BENCH_WORKLOADS,
    GOLDEN_DIR,
    bench_workload_digest,
    golden_de2mfw,
    golden_de2mfw_config,
    golden_delmfw,
    golden_dgd,
    golden_dofw,
    golden_softmax_central,
    golden_softmax_net,
    read_golden,
    split_trace,
)

TRACES = [("delmfw_t4.csv", golden_delmfw),
          ("de2mfw_n3.csv", golden_de2mfw),
          ("dofw_t3.csv", golden_dofw),
          ("dgd_t3.csv", golden_dgd),
          ("softmax_net_c3.csv", golden_softmax_net),
          ("softmax_central_c9.csv", golden_softmax_central),
          ("de2mfw_config.csv", golden_de2mfw_config)]
DIGESTS = "bench_workloads.sha256"


def build():
    """{file name: text} of every golden file, built in memory."""
    files = {name: make()[0].csv_text() for name, make in TRACES}
    files[DIGESTS] = "".join(f"{bench_workload_digest(name)}  {name}\n"
                             for name in sorted(BENCH_WORKLOADS))
    return files


def differences(name, old, new):
    """The parts of a golden file that differ between two versions of its text."""
    if name == DIGESTS:
        old_lines, new_lines = old.splitlines(), new.splitlines()
        return [line.split()[-1] for line in new_lines if line not in old_lines]
    (old_meta, old_cols), (new_meta, new_cols) = split_trace(old), split_trace(new)
    keys = sorted(k for k in old_meta.keys() | new_meta.keys() if old_meta.get(k) != new_meta.get(k))
    cols = [c for c in dict.fromkeys([*old_cols, *new_cols]) if old_cols.get(c) != new_cols.get(c)]
    return [f"#{k}" for k in keys] + cols


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed files; write nothing")
    args = parser.parse_args(argv)
    files = build()
    if args.check:
        moved = False
        for name, text in files.items():
            old = read_golden(name) if os.path.exists(os.path.join(GOLDEN_DIR, name)) else ""
            if old == text:
                print(f"{name}: same")
            else:
                moved = True
                print(f"{name}: moved {' '.join(differences(name, old, text)) if old else '(new)'}")
        return 1 if moved else 0
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
