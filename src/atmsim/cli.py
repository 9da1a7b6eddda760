"""Command line front end.

``conformance`` decodes each traced header and asks the contract's
cell-rate buckets whether the cell conforms; it counts verdicts and
builds no cell.

Only ``run`` and ``validate`` import the simulator, through the package
root; ``conformance`` and ``hec`` load only the codec and the contract.

Exit codes: 0 on success, 1 when a scenario fails validation or a trace
contains non-conforming cells, 2 on usage errors (a missing file or a
directory given as one, a ``run --out`` that names a file or a path
below one, bad hex, malformed trace lines).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .cell import (
    HEADER_BYTES,
    DecodeStatus,
    InterfaceKind,
    TraceFormatError,
    compute_hec,
    decode_header,
    encode_header,
    parse_trace_line,
)
from .errors import OrderingError
from .traffic import TrafficDescriptor, conform_update, contract_buckets

USAGE_ERROR = 2
FAILURE = 1

# looked up once per cell in the conformance loop, so read as module
# globals rather than through the enum class (see switch.ACCEPTED)
_CORRECTED = DecodeStatus.CORRECTED
_UNCORRECTABLE = DecodeStatus.UNCORRECTABLE


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _die(message: str, code: int) -> "int":
    print(f"error: {message}", file=sys.stderr)
    return code


def _not_a_file(path: str) -> Optional[str]:
    """Why ``path`` cannot be read as an input file, or None."""
    if not os.path.exists(path):
        return f"no such file: {path}"
    if os.path.isdir(path):
        return f"is a directory: {path}"
    return None


def _not_a_directory(out: str) -> Optional[str]:
    """Why ``out`` cannot be used or made as a directory, or None.

    The nearest existing path at or above ``out`` decides: a directory
    can hold it, anything else is in the way.
    """
    path = os.path.normpath(out)
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    if not path or os.path.isdir(path):
        return None
    if path == os.path.normpath(out):
        return f"--out is not a directory: {out}"
    return f"--out is below {path}, which is not a directory"


# ---------------------------------------------------------------------------
# run


def _cmd_run(args: argparse.Namespace) -> int:
    from . import ScenarioError, ScenarioInvalid, build, load_scenario

    problem = _not_a_file(args.scenario)
    if problem is not None:
        return _die(problem, USAGE_ERROR)
    if args.out is not None:
        problem = _not_a_directory(args.out)
        if problem is not None:
            return _die(problem, USAGE_ERROR)
    try:
        sc = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _die(str(exc), FAILURE)
    try:
        engine = build(sc)
    except ScenarioInvalid as exc:
        for violation in exc.violations:
            print(f"invalid: {violation}", file=sys.stderr)
        return FAILURE
    report = engine.run()

    print(f"scenario: {args.scenario}")
    print(
        f"duration_s: {_fmt(report.duration_s)} seed: {report.seed} "
        f"events: {report.events_processed}"
    )
    for conn_id, conn in report.connections.items():
        line = (
            f"conn {conn_id} [{conn['category']}]: "
            f"transmitted {conn['transmitted']} delivered {conn['delivered']} "
            f"lost {conn['lost']} clr {_fmt(conn['clr'])}"
        )
        print(line)
        delay = conn["delay"]
        if delay is not None:
            print(
                f"  delay: mean {_fmt(delay['mean_ctd'])} max {_fmt(delay['max_ctd'])} "
                f"cdv_pp {_fmt(delay['cdv_peak_to_peak'])} "
                f"cdv_std {_fmt(delay['cdv_stddev'])}"
            )
        abr = conn.get("abr")
        if abr is not None:
            print(
                f"  abr: final_acr {_fmt(abr['final_acr'])} "
                f"adjustments {abr['adjustments']} "
                f"feedback {abr['feedback_delivered']}/{abr['feedback_sent']}"
            )
    for name, sw in report.switches.items():
        print(
            f"switch {name}: routed {sw['routed']} full_drops {sw['full_drops']} "
            f"clp_drops {sw['clp_drops']} efci_marks {sw['efci_marks']}"
        )
    for name, link in report.links.items():
        print(
            f"link {name}: cells {link['cells']} "
            f"utilization {_fmt(link['utilization'])} "
            f"second_half {_fmt(link['second_half_utilization'])}"
        )
    if report.lane is not None:
        lane = report.lane
        print(
            f"lane: lecs {len(lane['lecs'])} direct_vcs {lane['data_direct_vcs']} "
            f"bus_frames {lane['bus']['frames_in']} "
            f"arp {lane['les']['arp_hits']}/{lane['les']['arp_requests']}"
        )

    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        with open(report_path, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {report_path}")
        for conn_id in report.abr_series:
            csv_path = os.path.join(args.out, f"abr_{conn_id}.csv")
            with open(csv_path, "w") as fh:
                fh.write(report.abr_csv(conn_id))
            print(f"wrote {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args: argparse.Namespace) -> int:
    from . import ScenarioError, load_scenario, preflight

    problem = _not_a_file(args.scenario)
    if problem is not None:
        return _die(problem, USAGE_ERROR)
    try:
        sc = load_scenario(args.scenario)
    except ScenarioError as exc:
        return _die(str(exc), FAILURE)
    violations = preflight(sc)
    if violations:
        for violation in violations:
            print(violation)
        return FAILURE
    print("OK")
    return 0


# ---------------------------------------------------------------------------
# conformance


def _cmd_conformance(args: argparse.Namespace) -> int:
    problem = _not_a_file(args.trace)
    if problem is not None:
        return _die(problem, USAGE_ERROR)
    if (args.scr is None) != (args.mbs is None):
        return _die("--scr and --mbs must be given together", USAGE_ERROR)
    only_port = args.port
    if only_port is not None and only_port < 0:
        return _die(f"--port must be >= 0, got {only_port}", USAGE_ERROR)
    buckets = contract_buckets(
        TrafficDescriptor(pcr=args.pcr, cdvt=args.cdvt, scr=args.scr, mbs=args.mbs)
    )
    kind = InterfaceKind(args.kind)

    total = 0
    conforming = 0
    corrected = 0
    uncorrectable = 0
    violations: List[str] = []
    # bytes that are not UTF-8 reach parse_trace_line as lone surrogates,
    # so a bad line is refused with its number like any malformed one
    with open(args.trace, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                time_s, port, raw = parse_trace_line(line)
            except TraceFormatError as exc:
                # a line of whitespace alone is refused as 0 fields and
                # skipped; file iteration yields no ""
                if line.isspace():
                    continue
                return _die(f"{args.trace}:{lineno}: {exc}", USAGE_ERROR)
            if only_port is not None and port != only_port:
                continue
            # parse_trace_line has checked the 53 bytes; the payload is not read
            outcome = decode_header(raw[:HEADER_BYTES], kind)
            status = outcome.status
            if status is _UNCORRECTABLE:
                uncorrectable += 1
                continue
            if status is _CORRECTED:
                corrected += 1
            total += 1
            try:
                ok = conform_update(buckets, time_s)
            except OrderingError:
                return _die(
                    f"{args.trace}:{lineno}: cell times must be non-decreasing",
                    USAGE_ERROR,
                )
            if ok:
                conforming += 1
            elif len(violations) < 10:
                header = outcome.header
                assert header is not None
                violations.append(
                    f"  line {lineno}: t={_fmt(time_s)} vpi={header.vpi} "
                    f"vci={header.vci} clp={header.clp}"
                )

    nonconforming = total - conforming
    print(f"cells: {total}")
    print(f"conforming: {conforming}")
    print(f"nonconforming: {nonconforming}")
    print(f"{'tagged' if args.action == 'tag' else 'dropped'}: {nonconforming}")
    print(f"corrected_headers: {corrected}")
    print(f"uncorrectable_headers: {uncorrectable}")
    if nonconforming:
        print("first violations:")
        for entry in violations:
            print(entry)
        return FAILURE
    return 0


# ---------------------------------------------------------------------------
# hec


def _cmd_hec(args: argparse.Namespace) -> int:
    text = args.header.replace(":", "").replace(" ", "")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        return _die(f"not valid hex: {args.header}", USAGE_ERROR)
    if len(raw) == 4:
        hec = compute_hec(raw)
        print((raw + bytes((hec,))).hex())
        return 0
    if len(raw) == 5:
        kind = InterfaceKind(args.kind)
        outcome = decode_header(raw, kind)
        if outcome.status is DecodeStatus.VALID:
            print("valid")
            return 0
        if outcome.status is DecodeStatus.CORRECTED:
            assert outcome.header is not None and outcome.flipped_bit is not None
            fixed = encode_header(outcome.header)
            print(f"corrected bit {outcome.flipped_bit}: {fixed.hex()}")
            return 0
        print("uncorrectable")
        return FAILURE
    return _die("expected 4 header bytes (compute) or 5 (check)", USAGE_ERROR)


# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atmsim", description="ATM network simulator and cell-level tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", help="directory for report.json and ABR rate CSVs")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(fn=_cmd_validate)

    p_con = sub.add_parser("conformance", help="police a cell trace against a contract")
    p_con.add_argument("trace", help="trace file: one 'time port cellhex' per line")
    p_con.add_argument("--pcr", type=float, required=True, help="peak cell rate, cells/s")
    p_con.add_argument("--cdvt", type=float, default=0.0, help="CDV tolerance, seconds")
    p_con.add_argument("--scr", type=float, help="sustainable cell rate, cells/s")
    p_con.add_argument("--mbs", type=int, help="maximum burst size, cells")
    p_con.add_argument(
        "--action", choices=("drop", "tag"), default="drop",
        help="the word the non-conforming count is printed under: dropped or tagged",
    )
    p_con.add_argument("--port", type=int, help="only check cells on this port")
    p_con.add_argument(
        "--kind", choices=[kind.value for kind in InterfaceKind], default="uni",
        help="header layout of the traced interface",
    )
    p_con.set_defaults(fn=_cmd_conformance)

    p_hec = sub.add_parser("hec", help="compute or check a header checksum")
    p_hec.add_argument("header", help="4 bytes of hex to compute, 5 to check")
    p_hec.add_argument(
        "--kind", choices=[kind.value for kind in InterfaceKind], default="uni",
        help="header layout when checking 5 bytes",
    )
    p_hec.set_defaults(fn=_cmd_hec)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        return _die(str(exc), FAILURE)


if __name__ == "__main__":
    sys.exit(main())
