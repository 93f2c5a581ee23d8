"""The stdout pins: CLI runs whose stdout is fixed byte for byte, each as an
argv, the first 16 hex digits of the sha256 of its stdout and a note on
where the digest comes from.  None of these stdouts holds a timing.

tests/test_cli.py runs every row in-process.  Run as a script,

    python tests/pins.py

runs every row through the installed `apresidues` console script, from any
directory and with the standard library only, so that it checks the
installed package and its packaged data/scenarios.json; it prints one line a
row and exits 1 if any run exits nonzero or prints other bytes.
"""

import hashlib
import subprocess
import sys


def _count(k: int, p: str, x: int) -> tuple[str, ...]:
    return ("count", "--target", "residue", "--k", str(k), "--q", "4", "--a", "1", "--p", p, "--x", str(x))


_INDEX_NOTE = ("quartic, Jacobi and cubic indices of the prime stage, recorded while separate reciprocity rules "
               "combined their flags")
_LADDER_NOTE = ("the longest ladders of the septic, quartic and cubic index leaves, over primes r up to 10^7, "
                "recorded while the quartic leaf had its own binary ladder over Z[i]")

# (argv, sha256 prefix of stdout, provenance)
PINS = [
    (("reproduce", "example-9.1"), "246daa15b8c42046", "28 rows, 5 DISCREPANCY, 0 FAIL"),
    (("reproduce", "example-9.2"), "88afc867015db1be", "28 rows, 3 DISCREPANCY, 0 FAIL"),
    (("reproduce", "example-11.1"), "3815622ed6ec2372", "121 rows, 48 DISCREPANCY, 0 FAIL"),
    (("reproduce", "example-11.2"), "8f9154be5454837c", "45 rows, 14 DISCREPANCY, 0 FAIL"),
    (("reproduce", "f41"), "055ef56874069f7a", "6 rows, 1 DISCREPANCY, 0 FAIL"),
    (("expsum", "--p", "10007", "--max-ratio-table"), "439b3e2251a5535e",
     "the line with the table's maximum ratio; tests/test_kernels.py pins the table's rows bit for bit"),
    (("expsum", "--p", "999983", "--max-ratio-table"), "3f8e03e1d756f4e0",
     "the largest table under the table limit, recorded with the hull-pruned kernel; larger tables must keep it"),
    (("patterns", "--p", "1000003", "--x", "5000"), "2eaae935bbadec20",
     "the census past 10^6 with a weighted pair sum, recorded before the census ran in one blocked pass"),
    (_count(7, "10^48+217", 10**5), "fc1ba70f233519e7",
     "recorded before k = 7 verdicts moved from Montgomery powers to the septic index leaf"),
    (_count(3, "2^128+51", 10**5), "5beafc072b3e15ff",
     "recorded while k = 3 verdicts came from the Z[w] cubic leaf, before the Eisenstein index leaf"),
    (_count(4, "10^48+217", 10**5), "383c37ffa3c741fd", _INDEX_NOTE),
    (_count(8, "10^48+217", 10**5), "00fc0b9c024d583b", _INDEX_NOTE),
    (_count(6, "2^128+51", 10**5), "bbd2c03207e52952", _INDEX_NOTE),
    (_count(9, "2^128+51", 10**5), "26dcd64f30b96580", _INDEX_NOTE),
    (_count(7, "10^48+217", 10**7), "e1c32afc34a6de61", _LADDER_NOTE),
    (_count(4, "10^48+217", 10**7), "3d0bf7fed3fc61c6", _LADDER_NOTE),
    (_count(3, "2^128+51", 10**7), "b64ec6fd4fe141d8", _LADDER_NOTE),
    (("count", "--target", "nonresidue", "--k", "2", "--q", "4", "--a", "1", "--p", "10^24+7", "--x", "10000000"),
     "54fa90c20f06ea50",
     "a sieve over five segments of 2^21 numbers and the wide Jacobi path; recorded while primes past 2^21 "
     "came from a segmented sieve over every number"),
    (("patterns", "--p", "4000037", "--x", "5000"), "4f3d172778d167e1",
     "a prime mask over two sieve segments; recorded while the mask came from one unsegmented odd-only sieve"),
]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def main() -> int:
    failed = 0
    for argv, want, _ in PINS:
        run = subprocess.run(["apresidues", *argv], stdout=subprocess.PIPE, check=False)
        got = digest(run.stdout)
        ok = run.returncode == 0 and got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} apresidues {' '.join(argv)}: exit {run.returncode}, {got}"
              + ("" if ok else f", pinned {want}"), flush=True)
    print(f"{len(PINS) - failed} of {len(PINS)} stdout pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
