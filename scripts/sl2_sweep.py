"""Tabulate perfectness of SL2(Z/n) by normal closure of the commutator [U, L].

The linear-disjointness argument needs SL2(Z/n) perfect for n coprime to
30; this sweep shows exactly where perfectness fails (n sharing a factor
with 6) and how the closure cost grows with the group order.
"""

import argparse
import math
import time

from towercert.elliptic import PERFECT_LIMIT, sl2_perfect


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=2, metavar="A",
                        help="smallest modulus (default 2)")
    parser.add_argument("--n-max", type=int, default=77, metavar="B",
                        help="largest modulus (default 77)")
    parser.add_argument("--coprime-to-30", action="store_true",
                        help="only moduli with gcd(n, 30) = 1")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not 2 <= args.n_min <= args.n_max <= PERFECT_LIMIT:
        raise SystemExit(f"moduli must satisfy 2 <= n-min <= n-max <= {PERFECT_LIMIT}")

    print(f"{'n':>4}  {'|SL2|':>8}  {'ab.':>4}  {'perfect':>7}  {'ms':>7}")
    failures = []
    for n in range(args.n_min, args.n_max + 1):
        if args.coprime_to_30 and math.gcd(n, 30) != 1:
            continue
        started = time.perf_counter()
        report = sl2_perfect(n)
        elapsed = 1000.0 * (time.perf_counter() - started)
        flag = "yes" if report.perfect else "NO"
        print(f"{n:>4}  {report.group_order:>8}  {report.abelianization_order:>4}  "
              f"{flag:>7}  {elapsed:>7.1f}")
        if not report.perfect:
            failures.append(n)

    print()
    if failures:
        print(f"imperfect moduli: {failures}")
        print("every failure shares a factor with 6:",
              all(math.gcd(n, 6) > 1 for n in failures))
    else:
        print("all scanned moduli are perfect")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
