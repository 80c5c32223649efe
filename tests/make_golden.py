"""Regenerate the golden trace files.  Run from the repository root:

    python3 tests/make_golden.py

Only rerun this when an intentional format or algorithm change invalidates
the committed fixtures; test_golden.py byte-compares against these files.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from _fixtures import (  # noqa: E402
    golden_de2mfw,
    golden_de2mfw_config,
    golden_delmfw,
    golden_dofw,
    golden_softmax_central,
    golden_softmax_net,
)


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "golden")
    os.makedirs(out_dir, exist_ok=True)
    for name, build in [("delmfw_t4.csv", golden_delmfw),
                        ("de2mfw_n3.csv", golden_de2mfw),
                        ("dofw_t3.csv", golden_dofw),
                        ("softmax_net_c3.csv", golden_softmax_net),
                        ("softmax_central_c9.csv", golden_softmax_central),
                        ("de2mfw_config.csv", golden_de2mfw_config)]:
        trace = build()[0]
        path = os.path.join(out_dir, name)
        trace.write_csv(path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
