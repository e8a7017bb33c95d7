"""Command-line frontend: reproducible batch runs, one JSON record per line.

Exit codes are a stable contract: 0 success, 1 validation rejection
(composite conductor, failed gate, uncertified verdict), 2 usage error,
3 numeric or resource failure.  A handler returns 0 or 1 itself; _run maps
what it raises: CertificationRejected is a rejection record and exit 1,
DomainError (InputRangeError included), from the library's argument
checks or the CLI's own, is a usage error (exit 2), and
NumericError or ResourceLimitError is exit 3, as is output that cannot be
written (a closed pipe, a full disk, no stdout at all).  A composite
`certify eigenform --ell` is rejected (exit 1) before its --registry file
is opened.  Nothing is randomized and no environment variables are read;
identical arguments reproduce identical bytes.

A command loads only the modules it runs.  Importing this module and
building the parser load arith, errors and records; every other library
name a handler calls (sl2_perfect, certify_cyclotomic, Pool, ...) is a
module attribute here that imports its module on the first call, so
`group perfect` and `furuta` load elliptic alone, `search` without
--certify hlsearch alone, `certify cyclotomic` cubic and tower alone, and
`certify eigenform` modforms alone unless its --registry file cites a tower
record for --ell.  The names stay attributes
of this module, looked up by the handlers at each call, so a test or a
tracer that rebinds one of them still sees every call.

How a command ends.  main() returns the exit code and never exits.  The
towercert script and `python -m towercert.cli` run script_entry, which
ends the process itself once main() returns: it runs the registered
atexit handlers as the interpreter would (multiprocessing registers one
when search --jobs opens a pool), flushes sys.stdout and then sys.stderr
(a stream that is None is skipped), and calls os._exit with the code.
What that skips is the interpreter's teardown, which clears every module
that site and the CLI imported and then collects garbage: 7-9 ms a process
(Python 3.11.7 on a 2-core Xeon box), about a tenth of a `group perfect`.
Every file the CLI opened is closed by then.  The flush keeps the exit
code contract in either buffering mode: a stdout that cannot take its
bytes (help text sent to a full disk) is exit 3 with the `cannot write
output` line, and bytes stderr cannot take are dropped with the code
kept.  A process started with stdout closed has sys.stdout None; a line
or help text written there fails the same way, exit 3.  An exception
escaping main(), or a trace, profile or sys.monitoring hook (a debugger,
python -m cProfile, coverage), keeps the normal exit through sys.exit, so
the tool watching the process still reports once main() returns.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import os
import stat
import sys
from contextlib import nullcontext
from functools import partial
from importlib import import_module

from .arith import DEFAULT_RESIDUES, check_natural, is_prime, m_from_prime, shanks_value
from .errors import (
    CertificationRejected,
    DomainError,
    InputRangeError,
    IntegralityError,
    NumericError,
    ResourceLimitError,
)
from .records import (
    _MAX_INT_DIGITS,
    parse_record,
    record_for,
    rejection_record,
    to_json_line,
)

__all__ = ["main", "script_entry", "build_parser"]

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# build_parser's constants, spelled here so that parsing loads no library
# module; tests pin each to its owner.
VALID_WEIGHTS = (12, 16, 18, 20, 22, 26)  # modforms.VALID_WEIGHTS
MIN_FURUTA_PRIMES = 9  # elliptic.MIN_FURUTA_PRIMES


def _lazy(module: str, name: str):
    """module.name, imported on the first call."""

    def call(*args, **kwargs):
        return getattr(import_module(module, __package__), name)(*args, **kwargs)

    return call


search_shanks_candidates = _lazy(".hlsearch", "search_shanks_candidates")
hl_constant = _lazy(".hlsearch", "hl_constant")
empirical_prime_count = _lazy(".hlsearch", "empirical_prime_count")
certify_cyclotomic = _lazy(".tower", "certify_cyclotomic")
certify_eigenform = _lazy(".modforms", "certify_eigenform")
verify_residue_claim = _lazy(".modforms", "verify_residue_claim")
sl2_perfect = _lazy(".elliptic", "sl2_perfect")
furuta_n = _lazy(".elliptic", "furuta_n")
Pool = _lazy("multiprocessing", "Pool")


class _OutputError(Exception):
    """Writing or closing the output failed with the OSError it wraps."""


class _NoStdout:
    """Stands in for sys.stdout when it is None: the process started with stdout closed."""

    def write(self, text: str) -> int:
        raise OSError(errno.EBADF, "stdout is closed")

    def flush(self) -> None:
        pass


def _to_devnull(stream) -> None:
    """Point stream's file descriptor at os.devnull, so the bytes it still holds flush there."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, stream.fileno())
    os.close(null)


class _Emitter:
    """Writes LF-terminated UTF-8 lines to stdout or --out FILE.

    FILE is opened up front, so an unopenable path fails before any work,
    but it is only emptied by start() or the first line: a command stopped
    by a usage error leaves an existing FILE as it was.  An OSError from
    writing, emptying or closing the output is raised as _OutputError.
    """

    def __init__(self, path: str | None):
        if path is None:
            self._stream = sys.stdout or _NoStdout()
        else:
            # O_CREAT without the O_TRUNC of mode "w": start() truncates later
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
            self._stream = open(fd, "w", encoding="utf-8", newline="")
        self._owns = self._pending = path is not None

    def start(self) -> None:
        """Empty FILE, as mode "w" would have on open; a no-op after the first call."""
        if self._pending:
            self._pending = False
            # O_TRUNC, like ftruncate, applies to regular files only
            try:
                if stat.S_ISREG(os.fstat(self._stream.fileno()).st_mode):
                    self._stream.truncate(0)
            except OSError as exc:
                raise self._failed(exc) from exc

    def record(self, rec) -> None:
        self.line(to_json_line(rec))

    def line(self, text: str) -> None:
        self.start()
        try:
            self._stream.write(text + "\n")
        except OSError as exc:
            raise self._failed(exc) from exc

    def close(self) -> None:
        try:
            if self._owns:
                self._stream.close()
            else:
                self._stream.flush()
        except OSError as exc:
            raise self._failed(exc) from exc

    def _failed(self, exc: OSError) -> _OutputError:
        if self._stream is sys.stdout:
            # stdout keeps the bytes it could not write, and is flushed
            # again at exit: send them to os.devnull instead
            _to_devnull(self._stream)
        return _OutputError(exc)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help text that cannot be written is exit 3.

    argparse ignores an OSError from writing help, and writes it to stderr
    when sys.stdout is None; here either ends the parse as SystemExit(3)
    with the `cannot write output` line, like a record that cannot be written.
    """

    def print_help(self, file=None) -> None:
        try:
            (file or sys.stdout or _NoStdout()).write(self.format_help())
        except OSError as exc:
            self.exit(EXIT_NUMERIC, f"towercert: cannot write output: {exc}\n")


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--out", metavar="FILE", default=None, help="write records to FILE instead of stdout"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="towercert",
        description="Certificates for number fields with infinite Hilbert class field towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()

    search = sub.add_parser(
        "search", parents=[common], help="sweep the family ell = m^2+3m+9"
    )
    search.add_argument("--m-max", type=int, required=True, metavar="N")
    default_residues = ",".join(map(str, sorted(DEFAULT_RESIDUES)))
    search.add_argument(
        "--residues",
        default=default_residues,
        metavar="R,R,...",
        help=f"allowed residues of m mod 12 (default {default_residues})",
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


def _parse_residues(text: str) -> frozenset[int]:
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"--residues must be comma-separated integers: {exc}") from exc


def _certify_record(m: int):
    """certify_cyclotomic(m)'s record, whether it certifies, and whether it failed numerically.

    A rejection, or a numeric failure with its diagnostics, becomes a
    rejection record, so a sweep emits it in place and carries on.
    """
    context = {"m": m, "ell": shanks_value(m)}
    try:
        certificate = certify_cyclotomic(m)
        return record_for(certificate), certificate.certified, False
    except CertificationRejected as exc:
        reasons, context, failed = exc.reasons, exc.context, False
    except IntegralityError as exc:
        reasons, failed = ["integrality"], True
        context.update(value=exc.value, gap=exc.gap, unit_index_suspected=exc.unit_index_suspected)
    except NumericError as exc:
        reasons, failed = ["numeric"], True
        context["message"] = str(exc)
    return rejection_record("certify cyclotomic", reasons, context), False, failed


def _search_lines(certify: bool, cand):
    """The lines for one search candidate, as one text, and its m if it failed numerically.

    Serial and parallel sweeps both call this, so they emit the same lines;
    a pool's workers send back strings, not records.
    """
    if not (certify and cand.is_prime_ell):
        return to_json_line(cand), None
    record, _, failed = _certify_record(cand.m)
    return to_json_line(cand) + "\n" + to_json_line(record), cand.m if failed else None


def _cmd_search(args, emitter) -> int:
    if args.jobs < 1:
        raise DomainError("--jobs must be a positive integer")
    candidates = search_shanks_candidates(args.m_max, _parse_residues(args.residues))
    if args.certify:
        from .cubic import MAX_CONDUCTOR

        if shanks_value(args.m_max) > MAX_CONDUCTOR:
            raise InputRangeError(
                f"--m-max {args.m_max} reaches conductors above MAX_CONDUCTOR = {MAX_CONDUCTOR}"
            )
    work = partial(_search_lines, args.certify)
    # A pool forks all its workers at once; the output does not depend on how many.
    workers = min(args.jobs, os.cpu_count() or 1) if args.certify else 1
    if workers > 1:
        import_module(".tower", __package__)  # once here, not again in every forked worker
    failures = []
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        outcomes = pool.imap(work, candidates) if pool else map(work, candidates)
        for text, failed in outcomes:
            emitter.line(text)
            if failed is not None:
                failures.append(failed)
    if failures:
        raise NumericError(f"class number computation failed for m in {failures}")
    return EXIT_OK


def _cmd_certify_cyclotomic(args, emitter) -> int:
    m = args.m if args.m is not None else m_from_prime(args.ell)
    if m is None:
        raise CertificationRejected(["not_shanks_form"], ell=args.ell)
    record, certified, failed = _certify_record(m)
    emitter.record(record)
    if failed:
        raise NumericError(f"class number computation failed for m in {[m]}")
    return EXIT_OK if certified else EXIT_REJECTED


def _cited_tower(path: str, ell: int):
    """ell's recomputed tower certificate if the JSONL file cites it, else None.

    Every line must parse with its content hash, and a certified tower
    record for ell must carry the hash of ell's certificate, recomputed once
    at the first such record.  Errors name the physical line; blank lines
    are skipped.  Each line is parsed as read, with its newline, so none is
    copied; only a line that fails to parse is tested for being blank.
    """
    tower = recomputed = None
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                try:
                    record = parse_record(line)
                    if record.kind != "cyclotomic_tower":
                        continue
                    payload = record.payload
                    if not payload.get("certified") or payload.get("ell") != ell:
                        continue
                    if tower is None:
                        m = m_from_prime(ell)
                        if m is None:
                            raise DomainError(f"conductor {ell} is not m^2+3m+9 for any m >= 1")
                        try:
                            tower = certify_cyclotomic(m)
                        except CertificationRejected as exc:
                            raise DomainError(
                                f"conductor {ell} cannot be certified: {exc}"
                            ) from exc
                        recomputed = record_for(tower).content_hash
                    if record.content_hash != recomputed:
                        raise DomainError(
                            f"tower record for ell={ell} differs from its recomputed "
                            f"certificate (content hash {recomputed})"
                        )
                except DomainError as exc:
                    if line.isspace():  # a blank line never parses
                        continue
                    raise DomainError(f"bad registry record at {path}:{number}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read registry file {path}: {exc}") from exc
    return tower


def _cmd_certify_eigenform(args, emitter) -> int:
    if not is_prime(args.ell):
        raise CertificationRejected(["composite"], ell=args.ell)
    tower = None if args.registry is None else _cited_tower(args.registry, args.ell)
    certificate = certify_eigenform(args.weight, args.ell, tower)
    emitter.record(record_for(certificate))
    return EXIT_OK if certificate.certified else EXIT_REJECTED


def _cmd_hl_constant(args, emitter) -> int:
    emitter.record(record_for(hl_constant(args.prime_bound)))
    return EXIT_OK


def _cmd_hl_count(args, emitter) -> int:
    # empirical_prime_count checks x too, but hl_constant runs before it
    if args.x < 19:
        raise DomainError("--x must be at least 19 (the least conductor value)")
    check_natural(args.x, "--x")
    from .hlsearch import CONDUCTOR_POLY

    constant_result = hl_constant(args.prime_bound)
    report = empirical_prime_count(CONDUCTOR_POLY, args.x, constant_result.constant)
    emitter.record(record_for(constant_result))
    emitter.record(record_for(report))
    return EXIT_OK


def _cmd_furuta(args, emitter) -> int:
    emitter.record(record_for(furuta_n(args.ell, args.m_e, args.count)))
    return EXIT_OK


def _cmd_group_perfect(args, emitter) -> int:
    emitter.record(record_for(sl2_perfect(args.n)))
    return EXIT_OK


def _cmd_verify_residue(args, emitter) -> int:
    emitter.record(record_for(verify_residue_claim(args.weight)))
    return EXIT_OK


def _say(message: str) -> None:
    """Print one line to stderr; a stderr that cannot be written does not change the exit code."""
    try:
        print(f"towercert: {message}", file=sys.stderr)
    except OSError:
        pass


def _run(args, emitter) -> int:
    """Run the command's handler and map its outcome to an exit code.

    A CertificationRejected becomes a rejection record labelled with the
    command ("certify eigenform", "furuta", ...), and exit 1.
    """
    try:
        return args.handler(args, emitter)
    except CertificationRejected as exc:
        command = " ".join(filter(None, (args.command, getattr(args, "target", None))))
        emitter.record(rejection_record(command, exc.reasons, exc.context))
        return EXIT_REJECTED
    except DomainError as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except (NumericError, ResourceLimitError) as exc:
        _say(f"numeric/resource failure: {exc}")
        return EXIT_NUMERIC


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code is None else int(exc.code)
    try:
        emitter = _Emitter(getattr(args, "out", None))
    except OSError as exc:
        _say(f"error: cannot open output file: {exc}")
        return EXIT_USAGE
    try:
        try:
            code = _run(args, emitter)
            if code != EXIT_USAGE:
                emitter.start()  # the command ran, so FILE holds its output even if empty
        finally:
            emitter.close()
    except _OutputError as exc:
        _say(f"cannot write output: {exc}")
        return EXIT_NUMERIC
    return code


def _flush_std_streams(code: int) -> int:
    """Flush stdout, then stderr, as the interpreter does at exit; return the exit code.

    Bytes stdout cannot take make the code EXIT_NUMERIC, said on stderr;
    bytes stderr cannot take are dropped and the code stands, as in _say.
    A stream that failed is pointed at os.devnull, so a later flush succeeds.
    """
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError as exc:
            _to_devnull(stream)
            if stream is sys.stdout:
                _say(f"cannot write output: {exc}")
                code = EXIT_NUMERIC
    return code


def script_entry() -> None:
    """The towercert command: main(), then the fast exit of the module docstring."""
    # PYTHONINTMAXSTRDIGITS would move what a command can write and read back
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(_MAX_INT_DIGITS)
    code = main()
    # A debugger, profiler or coverage tool reports from its own code once
    # main() returns.  From Python 3.12 cProfile and coverage can hook
    # sys.monitoring (tool ids 0-5), which gettrace and getprofile miss.
    monitoring = getattr(sys, "monitoring", None)
    watched = monitoring and any(map(monitoring.get_tool, range(6)))
    if watched or sys.gettrace() or sys.getprofile():
        sys.exit(_flush_std_streams(code))
    atexit._run_exitfuncs()  # what the interpreter runs at exit, and then clears
    os._exit(_flush_std_streams(code))


if __name__ == "__main__":
    script_entry()
