"""Command-line frontend: reproducible batch runs, one JSON record per line.

Exit codes are a stable contract: 0 success, 1 validation rejection
(composite conductor, failed gate, uncertified verdict), 2 usage error,
3 numeric or resource failure.  Nothing is randomized and no environment
variables are read; identical arguments reproduce identical records modulo
the timestamp field.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import partial
from multiprocessing import Pool

from .arith import is_prime
from .elliptic import MIN_FURUTA_PRIMES, PERFECT_LIMIT, furuta_n, sl2_perfect
from .errors import (
    CertificationRejected,
    DomainError,
    InputRangeError,
    IntegralityError,
    NumericError,
    ResourceLimitError,
)
from .hlsearch import (
    CONDUCTOR_POLY,
    empirical_prime_count,
    hl_constant,
    m_from_prime,
    search_shanks_candidates,
)
from .modforms import VALID_WEIGHTS, certify_eigenform, verify_residue_claim
from .records import (
    format_float,
    parse_record,
    record_for,
    rejection_record,
    to_json_line,
    tower_certificate_from_payload,
)
from .tower import KnownInfiniteRegistry, certify_cyclotomic

__all__ = ["main", "script_entry", "build_parser"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Emitter:
    """Writes LF-terminated UTF-8 lines to stdout or --out FILE."""

    def __init__(self, path: str | None):
        if path is None:
            self._stream = sys.stdout
            self._owns = False
        else:
            self._stream = open(path, "w", encoding="utf-8", newline="")
            self._owns = True

    def record(self, rec) -> None:
        self.line(to_json_line(rec))

    def line(self, text: str) -> None:
        self._stream.write(text + "\n")

    def close(self) -> None:
        if self._owns:
            self._stream.close()
        else:
            self._stream.flush()


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--out", metavar="FILE", default=None, help="write records to FILE instead of stdout"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towercert",
        description="Certificates for number fields with infinite Hilbert class field towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()

    search = sub.add_parser(
        "search", parents=[common], help="sweep the family ell = m^2+3m+9"
    )
    search.add_argument("--m-max", type=int, required=True, metavar="N")
    search.add_argument(
        "--residues",
        default="2,7,10,11",
        metavar="R,R,...",
        help="allowed residues of m mod 12 (default 2,7,10,11)",
    )
    search.add_argument(
        "--certify", action="store_true", help="run tower certification on prime conductors"
    )
    search.add_argument(
        "--jobs", type=int, default=1, metavar="J", help="parallel workers for --certify"
    )
    search.set_defaults(handler=_cmd_search)

    certify = sub.add_parser("certify", help="single-instance certification")
    certify_sub = certify.add_subparsers(dest="target", required=True)
    cyc = certify_sub.add_parser("cyclotomic", parents=[common])
    which = cyc.add_mutually_exclusive_group(required=True)
    which.add_argument("--m", type=int, default=None)
    which.add_argument("--ell", type=int, default=None)
    cyc.set_defaults(handler=_cmd_certify_cyclotomic)
    eig = certify_sub.add_parser("eigenform", parents=[common])
    eig.add_argument("--weight", type=int, required=True, choices=VALID_WEIGHTS)
    eig.add_argument("--ell", type=int, required=True)
    eig.add_argument(
        "--registry",
        metavar="FILE",
        default=None,
        help="JSON-lines file of tower certificates to cite as evidence",
    )
    eig.set_defaults(handler=_cmd_certify_eigenform)

    hl = sub.add_parser("hl", help="Hardy-Littlewood constant and counts")
    hl_sub = hl.add_subparsers(dest="target", required=True)
    hconst = hl_sub.add_parser("constant", parents=[common])
    hconst.add_argument("--prime-bound", type=int, required=True, metavar="B")
    hconst.set_defaults(handler=_cmd_hl_constant)
    hcount = hl_sub.add_parser("count", parents=[common])
    hcount.add_argument("--x", type=int, required=True)
    hcount.add_argument("--prime-bound", type=int, default=10**6, metavar="B")
    hcount.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    hcount.set_defaults(handler=_cmd_hl_count)

    fur = sub.add_parser("furuta", parents=[common], help="Furuta witness construction")
    fur.add_argument("--ell", type=int, required=True)
    fur.add_argument("--m-e", type=int, required=True)
    fur.add_argument("--count", type=int, default=MIN_FURUTA_PRIMES)
    fur.set_defaults(handler=_cmd_furuta)

    group = sub.add_parser("group", help="finite matrix group checks")
    group_sub = group.add_subparsers(dest="target", required=True)
    perfect = group_sub.add_parser("perfect", parents=[common])
    perfect.add_argument("--n", type=int, required=True)
    perfect.set_defaults(handler=_cmd_group_perfect)

    verify = sub.add_parser("verify", help="computational claim verification")
    verify_sub = verify.add_subparsers(dest="target", required=True)
    residue = verify_sub.add_parser("residue-claim", parents=[common])
    residue.add_argument("--weight", type=int, required=True, choices=VALID_WEIGHTS)
    residue.set_defaults(handler=_cmd_verify_residue)

    return parser


def _command_name(args: argparse.Namespace) -> str:
    target = getattr(args, "target", None)
    return f"{args.command} {target}" if target else args.command


def _parse_residues(text: str) -> frozenset[int]:
    try:
        values = frozenset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"--residues must be comma-separated integers: {exc}") from exc
    if not values:
        raise _UsageError("--residues must be nonempty")
    if not all(0 <= r < 12 for r in values):
        raise _UsageError(f"--residues must lie in [0, 12), got {sorted(values)}")
    return values


def _search_records(certify: bool, cand):
    """The records for one search candidate, and whether it failed numerically.

    Serial and parallel sweeps both call this, so they emit the same records.
    A numeric failure becomes a rejection record that keeps its diagnostics,
    so the sweep emits it in place and carries on.
    """
    records = [record_for(cand)]
    if not (certify and cand.is_prime_ell):
        return records, False
    context = {"m": cand.m, "ell": cand.ell}
    try:
        records.append(record_for(certify_cyclotomic(cand.m)))
        return records, False
    except CertificationRejected as exc:
        reasons, context, failed = exc.reasons, exc.context, False
    except IntegralityError as exc:
        reasons, failed = ["integrality"], True
        context.update(value=exc.value, gap=exc.gap, unit_index_suspected=exc.unit_index_suspected)
    except NumericError as exc:
        reasons, failed = ["numeric"], True
        context["message"] = str(exc)
    records.append(rejection_record("certify cyclotomic", reasons, context))
    return records, failed


def _cmd_search(args, emitter) -> int:
    if args.m_max < 1:
        raise _UsageError("--m-max must be a positive integer")
    if args.jobs < 1:
        raise _UsageError("--jobs must be a positive integer")
    candidates = search_shanks_candidates(args.m_max, _parse_residues(args.residues))
    work = partial(_search_records, args.certify)
    # A pool forks all its workers at once; the output does not depend on how many.
    workers = min(args.jobs, os.cpu_count() or 1) if args.certify else 1
    failures = []
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        outcomes = pool.imap(work, candidates) if pool else map(work, candidates)
        for records, failed in outcomes:
            for record in records:
                emitter.record(record)
            if failed:
                failures.append(records[0].payload["m"])
    if failures:
        raise NumericError(f"class number computation failed for m in {failures}")
    return EXIT_OK


def _cmd_certify_cyclotomic(args, emitter) -> int:
    if args.m is not None:
        if args.m < 1:
            raise _UsageError("--m must be a positive integer")
        m = args.m
    else:
        if args.ell < 13:
            raise _UsageError("--ell must be at least 13 (the m=1 conductor)")
        m = m_from_prime(args.ell)
        if m is None:
            emitter.record(
                rejection_record(
                    "certify cyclotomic", ["not_shanks_form"], {"ell": args.ell}
                )
            )
            return EXIT_REJECTED
    certificate = certify_cyclotomic(m)
    emitter.record(record_for(certificate))
    return EXIT_OK if certificate.certified else EXIT_REJECTED


def _load_registry(path: str, registry: KnownInfiniteRegistry) -> None:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read registry file {path}: {exc}") from exc
    for number, line in enumerate(lines, start=1):
        try:
            record = parse_record(line)
            if record.kind == "cyclotomic_tower" and record.payload.get("certified"):
                registry.record(tower_certificate_from_payload(record.payload))
        except DomainError as exc:
            raise _UsageError(f"bad registry record at {path}:{number}: {exc}") from exc


def _cmd_certify_eigenform(args, emitter) -> int:
    registry = KnownInfiniteRegistry()
    if args.registry is not None:
        _load_registry(args.registry, registry)
    if args.ell < 3 or not is_prime(args.ell):
        emitter.record(
            rejection_record("certify eigenform", ["composite"], {"ell": args.ell})
        )
        return EXIT_REJECTED
    certificate = certify_eigenform(args.weight, args.ell, registry)
    emitter.record(record_for(certificate))
    return EXIT_OK if certificate.certified else EXIT_REJECTED


def _cmd_hl_constant(args, emitter) -> int:
    if args.prime_bound < 5:
        raise _UsageError("--prime-bound must be at least 5 (the product starts at p=5)")
    emitter.record(record_for(hl_constant(args.prime_bound)))
    return EXIT_OK


def _cmd_hl_count(args, emitter) -> int:
    if args.x < 19:
        raise _UsageError("--x must be at least 19 (the least conductor value)")
    if args.prime_bound < 5:
        raise _UsageError("--prime-bound must be at least 5 (the product starts at p=5)")
    constant_result = hl_constant(args.prime_bound)
    report = empirical_prime_count(CONDUCTOR_POLY, args.x, constant_result.constant)
    if args.format == "csv":
        emitter.line("x,count,estimate,ratio")
        emitter.line(
            f"{report.x},{report.count},"
            f"{format_float(report.estimate)},{format_float(report.ratio)}"
        )
    else:
        emitter.record(record_for(constant_result))
        emitter.record(record_for(report))
    return EXIT_OK


def _cmd_furuta(args, emitter) -> int:
    if args.count < MIN_FURUTA_PRIMES:
        raise _UsageError(
            f"--count must be at least {MIN_FURUTA_PRIMES}: the construction "
            "requires nine or more primes"
        )
    if args.m_e < 30 or args.m_e % 30 != 0:
        raise _UsageError("--m-e must be a positive multiple of 30")
    if not is_prime(args.ell):
        emitter.record(rejection_record("furuta", ["composite"], {"ell": args.ell}))
        return EXIT_REJECTED
    emitter.record(record_for(furuta_n(args.ell, args.m_e, args.count)))
    return EXIT_OK


def _cmd_group_perfect(args, emitter) -> int:
    if not 2 <= args.n <= PERFECT_LIMIT:
        raise _UsageError(f"--n must lie in [2, {PERFECT_LIMIT}]")
    emitter.record(record_for(sl2_perfect(args.n)))
    return EXIT_OK


def _cmd_verify_residue(args, emitter) -> int:
    emitter.record(record_for(verify_residue_claim(args.weight)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code is None else int(exc.code)
    emitter = _Emitter(getattr(args, "out", None))
    try:
        return args.handler(args, emitter)
    except _UsageError as exc:
        print(f"towercert: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationRejected as exc:
        emitter.record(rejection_record(_command_name(args), exc.reasons, exc.context))
        return EXIT_REJECTED
    except InputRangeError as exc:
        print(f"towercert: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericError, ResourceLimitError) as exc:
        print(f"towercert: numeric/resource failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DomainError as exc:
        print(f"towercert: rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    finally:
        emitter.close()


def script_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script_entry()
