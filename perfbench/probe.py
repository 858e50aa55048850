"""One set-up probe: a fresh interpreter, up to the workload's first checked answer.

    python3 perfbench/probe.py <workload> '<json>'

where the JSON holds the first op's input: {"a", "b", "oracle"} for
classify-small, {"a", "b", "expect_normalized"} for index-wide and {"seed"}
for sweep-agreement.

The probe first times the reference loop, before the program is imported, and
then prints one JSON line: the perf_counter reading when the answer was
checked, the seconds spent on the reference loop, the reference time and the
problems found.  The parent takes set-up time as (that reading - the time it
started the probe - the reference seconds), scaled by the probe's reference.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import refloop

REF_CALLS = 9


def main(argv: list) -> int:
    ref_s, ref_spent = refloop.sample_median(REF_CALLS)
    import checks
    import corpus

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    workload, first = argv[0], json.loads(argv[1])
    if workload == "classify-small":
        from nonicindex import cli

        pair = corpus.Pair(first["a"], first["b"], oracle=first["oracle"])
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["classify", "--a", str(pair.a), "--b", str(pair.b), "--json"])
        problems = [f"exit code {code}"] if code else checks.check_classify(
            pair, json.loads(out.getvalue())["result"], None)
    elif workload == "index-wide":
        from nonicindex import nonic

        pair = corpus.Pair(first["a"], first["b"],
                           expect_normalized=tuple(first["expect_normalized"]))
        n = nonic.normalize(pair.a, pair.b)
        cert, _ = nonic.irreducibility_certificate(*n)
        entries = [checks.entry_data(nonic.nu2(*n)), checks.entry_data(nonic.nu3(*n))]
        problems = checks.check_index(pair, n, cert.value, entries, None)
    else:
        from nonicindex import verify

        p, modulus = corpus.SWEEP_GRIDS[0]
        cells: list = []

        def first_cell(a0, b0):
            if cells:
                return False
            cells.append((a0, b0))
            return True

        report = verify.sweep_agreement(p, modulus, 1, first["seed"], class_filter=first_cell)
        problems = checks.check_sweep(report, p, modulus, cells)
    done = time.perf_counter()
    print(json.dumps({"done": done, "ref_s": ref_s, "ref_spent": ref_spent, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
