"""Cross-check and record the reference tables the benchmark compares against.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Writes perfbench/reference.json: the ``pathlab table --format json`` payloads
of the table workloads.  Before writing, the tables are checked against each
other and against closed forms: brute equals fast at n = 6 for every k, for
both stats; S(n, k) vanishes when n - k is even; and summing S_fast(8, k) or
D_fast(8, k) over k gives [8]_t!.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from pathlab import cli  # noqa: E402
from pathlab.adr import D_fast, S_fast  # noqa: E402
from pathlab.enumeration import D_brute, S_brute  # noqa: E402
from pathlab.poly import TPoly, t_factorial  # noqa: E402

TABLES = [("S", "brute", 6), ("D", "brute", 6), ("S", "fast", 8), ("D", "fast", 8)]


def cross_check() -> None:
    for k in range(6):
        if S_brute(6, k) != S_fast(6, k) or D_brute(6, k) != D_fast(6, k):
            raise SystemExit(f"brute and fast tables differ at n=6, k={k}")
    for n in (6, 8):
        for k in range(n):
            if (n - k) % 2 == 0 and S_fast(n, k) != TPoly():
                raise SystemExit(f"S({n},{k}) is nonzero with n - k even")
    for stat in (S_fast, D_fast):
        total = TPoly()
        for k in range(8):
            total = total + stat(8, k)
        if total != t_factorial(8):
            raise SystemExit(f"sum over k of {stat.__name__}(8, k) is not [8]_t!")


def table_payload(stat: str, method: str, n: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["table", "--n", str(n), "--stat", stat, "--method", method,
                         "--format", "json"])
    if code != 0:
        raise SystemExit(f"pathlab table exited with {code}")
    return json.loads(buf.getvalue())


def main() -> None:
    cross_check()
    reference = {f"{s}-{m}-{n}": table_payload(s, m, n) for s, m, n in TABLES}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
