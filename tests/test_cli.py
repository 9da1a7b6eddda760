"""CLI behaviour: exit codes, output, and file emission."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from conftest import GOLDEN_CONTRACT, GOLDEN_RUNS, write_seeded_trace

import atmsim
from atmsim import cell as cell_module
from atmsim.cell import (
    HEADER_BYTES,
    Cell,
    CellHeader,
    DecodeStatus,
    InterfaceKind,
    decode_header,
    encode_header,
    format_trace_line,
    parse_trace_line,
)
from atmsim.cli import main
from atmsim.engine import preflight

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.dirname(os.path.dirname(atmsim.__file__))

# argv: the directory holding atmsim, then the CLI's own arguments
CLI = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from atmsim.cli import main; sys.exit(main())"
)


def write_scenario(tmp_path, raw: dict, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def small_scenario() -> dict:
    return {
        "duration_s": 0.5,
        "seed": 2,
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "s", "kind": "switch"},
            {"name": "b", "kind": "host"},
        ],
        "links": [
            {"a": "a", "b": "s", "bit_rate": 1e6, "propagation_delay": 0.001},
            {"a": "s", "b": "b", "bit_rate": 1e6, "propagation_delay": 0.001},
        ],
        "generators": [{"id": "g", "kind": "paced_cbr", "rate": 200.0}],
        "connections": [
            {
                "id": "c1",
                "category": "CBR",
                "route": ["a", "s", "b"],
                "generator": "g",
                "descriptor": {"pcr": 200.0, "cdvt": 0.001},
            }
        ],
    }


def trace_cell(vci=32, clp=0) -> Cell:
    header = CellHeader(kind=InterfaceKind.UNI, vpi=0, vci=vci, clp=clp)
    return Cell(header, bytes(48))


def write_trace(tmp_path, lines, name="trace.txt") -> str:
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestHec:
    def test_compute_appends_checksum(self, capsys):
        assert main(["hec", "00000000"]) == 0
        assert capsys.readouterr().out.strip() == "0000000055"

    def test_compute_known_header(self, capsys):
        assert main(["hec", "00100010"]) == 0
        assert capsys.readouterr().out.strip() == "0010001087"

    def test_check_valid(self, capsys):
        assert main(["hec", "0010001087"]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_check_corrects_single_bit(self, capsys):
        corrupted = bytearray(bytes.fromhex("0010001087"))
        corrupted[1] ^= 0x40
        assert main(["hec", corrupted.hex()]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("corrected bit ")
        assert out.endswith("0010001087")

    def test_check_double_flip_uncorrectable(self, capsys):
        corrupted = bytearray(bytes.fromhex("0010001087"))
        corrupted[0] ^= 0x01
        corrupted[3] ^= 0x80
        assert main(["hec", corrupted.hex()]) == 1
        assert capsys.readouterr().out.strip() == "uncorrectable"

    def test_colon_separated_hex_accepted(self, capsys):
        assert main(["hec", "00:10:00:10"]) == 0
        assert capsys.readouterr().out.strip() == "0010001087"

    def test_bad_hex_is_usage_error(self):
        assert main(["hec", "zz"]) == 2

    def test_wrong_length_is_usage_error(self):
        assert main(["hec", "001000"]) == 2

    @pytest.mark.parametrize("kind", [kind.value for kind in InterfaceKind])
    def test_checks_under_each_interface_kind(self, kind, capsys):
        assert main(["hec", "0010001087", "--kind", kind]) == 0
        assert capsys.readouterr().out.strip() == "valid"


def reference_scenario() -> dict:
    with open(os.path.join(DATA_DIR, "reference_scenario.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _set_node(name, **fields):
    def mutate(raw):
        next(n for n in raw["nodes"] if n["name"] == name).update(fields)
        return raw

    return mutate


def _set_abr(**fields):
    def mutate(raw):
        next(c for c in raw["connections"] if c["id"] == "bulk")["abr"] = fields
        return raw

    return mutate


LONG_HOST = "host-" + "x" * 16  # 21 bytes, one more than an ATM address holds


def _rename_h1(raw):
    return json.loads(json.dumps(raw).replace('"h1"', f'"{LONG_HOST}"'))


# Parameter values only a component's constructor rejects, and the named
# violation each must come back as.
COMPONENT_RANGE_CASES = [
    ("efci_above_capacity", _set_node("s1", efci_threshold=129),
     "node s1: efci_threshold must lie within [0, capacity]"),
    ("efci_negative", _set_node("s1", efci_threshold=-1),
     "node s1: efci_threshold must lie within [0, capacity]"),
    ("clp_above_capacity", _set_node("s2", queue_capacity=16, clp_threshold=17),
     "node s2: clp_threshold must lie within [0, capacity]"),
    ("clp_negative", _set_node("s2", clp_threshold=-1),
     "node s2: clp_threshold must lie within [0, capacity]"),
    ("rdf_zero", _set_abr(rdf=0.0), "connection bulk: rdf must lie in (0, 1]"),
    ("rdf_above_one", _set_abr(rdf=1.5), "connection bulk: rdf must lie in (0, 1]"),
    ("nrm_zero", _set_abr(nrm=0), "connection bulk: nrm must be >= 1"),
    ("air_negative", _set_abr(air=-1.0), "connection bulk: air must be >= 0"),
    ("initial_acr_below_mcr", _set_abr(initial_acr=5.0),
     "connection bulk: acr must start within [mcr, pcr]"),
    ("initial_acr_above_pcr", _set_abr(initial_acr=2000.0),
     "connection bulk: acr must start within [mcr, pcr]"),
    ("lec_host_name_too_long", _rename_h1,
     f"lane lec {LONG_HOST}: node name {LONG_HOST!r} too long for an ATM address"),
]


class TestValidate:
    @pytest.mark.parametrize(
        "mutate, expected",
        [case[1:] for case in COMPONENT_RANGE_CASES],
        ids=[case[0] for case in COMPONENT_RANGE_CASES],
    )
    def test_component_range_is_a_named_violation(self, tmp_path, capsys, mutate, expected):
        raw = mutate(reference_scenario())
        assert preflight(raw) == [expected]
        path = write_scenario(tmp_path, raw)
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [expected]
        assert captured.err == ""

    def test_good_scenario_ok(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario())
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_missing_file_usage_error(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_directory_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"

    def test_semantic_violation_fails(self, tmp_path, capsys):
        raw = small_scenario()
        raw["duration_s"] = -1.0
        path = write_scenario(tmp_path, raw)
        assert main(["validate", path]) == 1
        assert "duration_s" in capsys.readouterr().out

    def test_schema_error_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 1

    @pytest.mark.parametrize(
        "text",
        [b'{"duration_s": 1, "nodes": ' + b"[" * 200_000, b'{"duration_s": 1, "seed": "\xff"}'],
        ids=["nested_200000_deep", "not_utf8"],
    )
    def test_unparsable_json_is_one_error_line(self, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text)
        done = subprocess.run(
            [sys.executable, "-I", "-c", CLI, SRC, "validate", str(path)],
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: not valid JSON: ")
        assert len(done.stderr.splitlines()) == 1

    def test_admission_failure_reported(self, tmp_path, capsys):
        raw = small_scenario()
        raw["generators"][0]["rate"] = 1500.0
        raw["connections"][0]["descriptor"]["pcr"] = 1500.0
        raw["generators"].append({"id": "g2", "kind": "paced_cbr", "rate": 1500.0})
        raw["connections"].append(
            {
                "id": "c2",
                "category": "CBR",
                "route": ["a", "s", "b"],
                "generator": "g2",
                "descriptor": {"pcr": 1500.0, "cdvt": 0.001},
            }
        )
        path = write_scenario(tmp_path, raw)
        assert main(["validate", path]) == 1
        assert "rejected by admission control" in capsys.readouterr().out


class TestRun:
    def test_run_prints_summary(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario())
        assert main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "conn c1 [CBR]:" in out
        assert "switch s:" in out
        assert "link a->s:" in out
        assert "delay: mean" in out

    def test_run_missing_file(self, tmp_path):
        assert main(["run", str(tmp_path / "gone.json")]) == 2

    def test_run_directory_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"

    def test_run_out_naming_a_file_refused_before_the_run(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario())
        out_file = tmp_path / "taken"
        out_file.write_text("keep me")
        assert main(["run", path, "--out", str(out_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err == f"error: --out is not a directory: {out_file}\n"
        assert out_file.read_text() == "keep me"

    @pytest.mark.parametrize("below", ["sub", "sub/deeper"])
    def test_run_out_below_a_file_refused_before_the_run(self, tmp_path, capsys, below):
        path = write_scenario(tmp_path, small_scenario())
        out_file = tmp_path / "taken"
        out_file.write_text("keep me")
        assert main(["run", path, "--out", str(out_file / below)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert captured.err == f"error: --out is below {out_file}, which is not a directory\n"
        assert out_file.read_text() == "keep me"

    def test_run_invalid_scenario(self, tmp_path, capsys):
        raw = small_scenario()
        raw["duration_s"] = -1.0
        path = write_scenario(tmp_path, raw)
        assert main(["run", path]) == 1

    def test_run_schema_error(self, tmp_path, capsys):
        raw = small_scenario()
        raw["colour"] = "red"
        path = write_scenario(tmp_path, raw)
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scenario: unknown keys ['colour']\n"
        assert not out_dir.exists()

    def test_run_refuses_an_id_that_cannot_name_a_file(self, tmp_path, capsys):
        raw = small_scenario()
        raw["connections"][0]["id"] = "x/y"
        path = write_scenario(tmp_path, raw)
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "invalid: connection 'x/y': id must not contain '/' or NUL\n" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", ["reference", "congested"])
    def test_switch_lines_state_the_reports_counts(self, tmp_path, capsys, name):
        out_dir = tmp_path / "results"
        scenario = os.path.join(DATA_DIR, f"{name}_scenario.json")
        assert main(["run", scenario, "--out", str(out_dir)]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("switch ")]
        switches = json.loads((out_dir / "report.json").read_text())["switches"]
        assert switches
        assert lines == [
            f"switch {name}: routed {sw['routed']} full_drops {sw['full_drops']} "
            f"clp_drops {sw['clp_drops']} efci_marks {sw['efci_marks']}"
            for name, sw in switches.items()
        ]

    def test_run_writes_report(self, tmp_path, capsys):
        path = write_scenario(tmp_path, small_scenario())
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["connections"]["c1"]["delivered"] > 0
        assert f"wrote {out_dir / 'report.json'}" in capsys.readouterr().out

    def test_run_writes_abr_csv(self, tmp_path, capsys):
        raw = small_scenario()
        raw["duration_s"] = 2.0
        raw["nodes"][1]["efci_threshold"] = 16
        raw["links"][0]["bit_rate"] = 4e6
        raw["generators"] = [{"id": "g", "kind": "greedy_abr"}]
        raw["connections"] = [
            {
                "id": "flow",
                "category": "ABR",
                "route": ["a", "s", "b"],
                "generator": "g",
                "descriptor": {"pcr": 2e6 / 424, "mcr": 0.0},
            }
        ]
        path = write_scenario(tmp_path, raw)
        out_dir = tmp_path / "results"
        assert main(["run", path, "--out", str(out_dir)]) == 0
        csv_text = (out_dir / "abr_flow.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == "time_s,acr,congested"
        assert len(lines) > 1
        out = capsys.readouterr().out
        assert "abr: final_acr" in out


class TestConformance:
    def conforming_trace(self, tmp_path, pcr=1024.0, count=8):
        # Period 1/1024 s is an exact binary float, so timestamps written
        # with repr() survive the round trip and match the contract exactly.
        period = 1.0 / pcr
        lines = [
            format_trace_line(i * period, 1, trace_cell()) for i in range(count)
        ]
        return write_trace(tmp_path, lines)

    def test_conforming_trace_passes(self, tmp_path, capsys):
        path = self.conforming_trace(tmp_path)
        assert main(["conformance", path, "--pcr", "1024"]) == 0
        out = capsys.readouterr().out
        assert "cells: 8" in out
        assert "conforming: 8" in out
        assert "nonconforming: 0" in out

    def test_burst_fails_and_lists_violations(self, tmp_path, capsys):
        lines = [format_trace_line(0.0, 1, trace_cell()) for _ in range(3)]
        path = write_trace(tmp_path, lines)
        assert main(["conformance", path, "--pcr", "1024"]) == 1
        out = capsys.readouterr().out
        assert "nonconforming: 2" in out
        assert "dropped: 2" in out
        assert "first violations:" in out
        assert "line 2:" in out

    def test_tag_action_reports_tagged(self, tmp_path, capsys):
        lines = [format_trace_line(0.0, 1, trace_cell()) for _ in range(2)]
        path = write_trace(tmp_path, lines)
        assert main(["conformance", path, "--pcr", "1024", "--action", "tag"]) == 1
        out = capsys.readouterr().out
        assert "tagged: 1" in out

    def test_tag_action_fails_when_cells_were_already_tagged(self, tmp_path, capsys):
        # Tagging leaves a CLP=1 cell as it is, but the cell still does
        # not conform and must fail the trace.
        lines = [format_trace_line(0.0, 1, trace_cell(clp=1)) for _ in range(3)]
        path = write_trace(tmp_path, lines)
        assert main(["conformance", path, "--pcr", "1024", "--action", "tag"]) == 1
        out = capsys.readouterr().out
        assert "nonconforming: 2" in out
        assert "tagged: 2" in out
        assert "  line 2: t=0 vpi=0 vci=32 clp=1" in out
        assert "  line 3: t=0 vpi=0 vci=32 clp=1" in out

    @pytest.mark.parametrize("kind, vpi", [("nni", 0x123), ("uni", 0x23)])
    def test_kind_selects_the_header_layout(self, tmp_path, capsys, kind, vpi):
        # an NNI header with a 12-bit VPI; at the UNI its top 4 bits are the GFC
        cell = Cell(CellHeader(kind=InterfaceKind.NNI, vpi=0x123, vci=32), bytes(48))
        path = write_trace(tmp_path, [format_trace_line(0.0, 1, cell) for _ in range(2)])
        assert main(["conformance", path, "--pcr", "1024", "--kind", kind]) == 1
        assert f"  line 2: t=0 vpi={vpi} vci=32 clp=0" in capsys.readouterr().out

    def test_port_filter(self, tmp_path, capsys):
        lines = [
            format_trace_line(0.0, 1, trace_cell()),
            format_trace_line(0.0, 2, trace_cell()),
        ]
        path = write_trace(tmp_path, lines)
        assert main(["conformance", path, "--pcr", "1024", "--port", "1"]) == 0
        assert "cells: 1" in capsys.readouterr().out

    def test_negative_port_is_usage_error(self, tmp_path, capsys):
        path = self.conforming_trace(tmp_path)
        assert main(["conformance", path, "--pcr", "1024", "--port", "-1"]) == 2
        assert "--port must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value", [("--pcr", "nan"), ("--pcr", "inf"), ("--cdvt", "inf"), ("--cdvt", "nan")]
    )
    def test_non_finite_contract_rejected(self, tmp_path, capsys, option, value):
        path = self.conforming_trace(tmp_path)
        args = {"--pcr": "1024", option: value}
        assert main(["conformance", path, *(x for kv in args.items() for x in kv)]) == 1
        captured = capsys.readouterr()
        assert f"{option[2:]} must be finite" in captured.err
        assert "cells:" not in captured.out

    def test_scr_requires_mbs(self, tmp_path):
        path = self.conforming_trace(tmp_path)
        assert main(["conformance", path, "--pcr", "1024", "--scr", "512"]) == 2

    def test_dual_bucket_accepts_declared_burst(self, tmp_path, capsys):
        # Back-to-back at PCR up to MBS cells is conforming for the
        # sustainable bucket when tau equals the burst tolerance.
        pcr, scr, mbs = 1024.0, 512.0, 4
        period = 1.0 / pcr
        lines = [
            format_trace_line(i * period, 1, trace_cell()) for i in range(mbs)
        ]
        path = write_trace(tmp_path, lines)
        rc = main(
            [
                "conformance",
                path,
                "--pcr",
                "1024",
                "--scr",
                "512",
                "--mbs",
                "4",
            ]
        )
        assert rc == 0
        assert "conforming: 4" in capsys.readouterr().out

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        path = write_trace(tmp_path, ["0.0 1 deadbeef", "not a line"])
        assert main(["conformance", path, "--pcr", "1024"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1:" in err or f"{path}:2:" in err

    def test_malformed_line_on_a_filtered_port_is_usage_error(self, tmp_path, capsys):
        # --port skips cells, not the check of the line that carries them.
        good = format_trace_line(0.0, 1, trace_cell())
        path = write_trace(tmp_path, [good, "0.0 2 " + "zz" * 53])
        assert main(["conformance", path, "--pcr", "1024", "--port", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}:2: ")
        assert "cells:" not in captured.out

    @pytest.mark.parametrize(
        "bad_line, message",
        [(b"0.0 0 \xff\xfe", "cell bytes are not valid hex"), (b"\xff 0 00", "bad time value")],
        ids=["in_cell_bytes", "in_time"],
    )
    def test_bytes_that_are_not_utf8_are_a_usage_error(self, tmp_path, capsys, bad_line, message):
        good = format_trace_line(0.0, 1, trace_cell())
        path = tmp_path / "trace.txt"
        path.write_bytes(good.encode() + b"\n" + bad_line + b"\n")
        assert main(["conformance", str(path), "--pcr", "1024"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}:2: {message}")
        assert "cells:" not in captured.out

    def test_time_regression_is_usage_error(self, tmp_path, capsys):
        lines = [
            format_trace_line(0.5, 1, trace_cell()),
            format_trace_line(0.25, 1, trace_cell()),
        ]
        path = write_trace(tmp_path, lines)
        assert main(["conformance", path, "--pcr", "1024"]) == 2
        assert "non-decreasing" in capsys.readouterr().err

    def test_corrupted_header_corrected_and_counted(self, tmp_path, capsys):
        cell = trace_cell()
        raw = bytearray(encode_header(cell.header) + cell.payload)
        raw[0] ^= 0x04
        line = f"{0.0!r} 1 {bytes(raw).hex()}"
        path = write_trace(tmp_path, [line])
        assert main(["conformance", path, "--pcr", "1024"]) == 0
        out = capsys.readouterr().out
        assert "corrected_headers: 1" in out
        assert "cells: 1" in out

    def test_uncorrectable_header_skipped(self, tmp_path, capsys):
        cell = trace_cell()
        raw = bytearray(encode_header(cell.header) + cell.payload)
        raw[0] ^= 0x05
        line = f"{0.0!r} 1 {bytes(raw).hex()}"
        path = write_trace(tmp_path, [line])
        assert main(["conformance", path, "--pcr", "1024"]) == 0
        out = capsys.readouterr().out
        assert "uncorrectable_headers: 1" in out
        assert "cells: 0" in out

    def test_checks_cells_without_building_any(self, tmp_path, capsys, monkeypatch):
        cell = trace_cell()
        raw = bytearray(encode_header(cell.header) + cell.payload)
        raw[0] ^= 0x04
        lines = [format_trace_line(0.0, 1, cell) for _ in range(2)]
        lines.append(f"{1.0!r} 1 {bytes(raw).hex()}")
        path = write_trace(tmp_path, lines)

        def refuse(self, *args, **kwargs):
            raise AssertionError("conformance built a Cell")

        monkeypatch.setattr(Cell, "__init__", refuse)
        assert main(["conformance", path, "--pcr", "1024", "--action", "tag"]) == 1
        out = capsys.readouterr().out
        for line in ("cells: 3", "conforming: 2", "nonconforming: 1", "tagged: 1",
                     "corrected_headers: 1", "  line 2: t=0 vpi=0 vci=32 clp=0"):
            assert line + "\n" in out

    @pytest.mark.parametrize(
        "contract, rates",
        [(["--pcr", "100", "--scr", "50", "--mbs", str(10**400)], "scr=50.0 and pcr=100.0")],
        ids=["mbs-past-float"],
    )
    def test_non_finite_burst_tolerance_is_an_error(self, tmp_path, capsys, contract, rates):
        path = write_trace(tmp_path, [format_trace_line(0.0, 1, trace_cell())])
        assert main(["conformance", path, *contract]) == 1
        assert capsys.readouterr() == (
            "",
            "error: burst tolerance (mbs - 1) * (1/scr - 1/pcr) is not a finite number "
            f"for {rates}\n",
        )

    def test_single_cell_burst_at_underflowing_rates_is_checked(self, tmp_path, capsys):
        path = write_trace(tmp_path, [format_trace_line(0.0, 1, trace_cell())])
        assert main(["conformance", path, "--pcr", "1e-300", "--scr", "1e-300", "--mbs", "1"]) == 0
        out = capsys.readouterr().out
        for line in ("cells: 1", "conforming: 1", "nonconforming: 0", "dropped: 0"):
            assert line + "\n" in out

    @pytest.mark.parametrize(
        "rate, scr", [("1e-200", "1e-200"), ("1e-300", "1e-300"), ("2e-300", "1e-300")],
        ids=["rates-1e-200", "rates-1e-300", "unequal-rates-1e-300"],
    )
    def test_longer_burst_at_underflowing_rates_is_checked(self, tmp_path, capsys, rate, scr):
        # scr * pcr underflows to zero, but the burst tolerance is finite
        path = write_trace(tmp_path, [format_trace_line(0.0, 1, trace_cell())])
        assert main(["conformance", path, "--pcr", rate, "--scr", scr, "--mbs", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for line in ("cells: 1", "conforming: 1", "nonconforming: 0", "dropped: 0"):
            assert line + "\n" in out

    def test_burst_past_the_float_range_is_checked(self, tmp_path, capsys):
        # mbs has no float value, but the burst tolerance is about 5e299
        path = write_trace(tmp_path, [format_trace_line(0.0, 1, trace_cell())])
        contract = ["--pcr", "2e100", "--scr", "1e100", "--mbs", str(10**400)]
        assert main(["conformance", path, *contract]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for line in ("cells: 1", "conforming: 1", "nonconforming: 0", "dropped: 0"):
            assert line + "\n" in out

    def test_missing_trace_usage_error(self, tmp_path):
        assert main(["conformance", str(tmp_path / "no.txt"), "--pcr", "10"]) == 2

    def test_directory_trace_usage_error(self, tmp_path, capsys):
        assert main(["conformance", str(tmp_path), "--pcr", "10"]) == 2
        assert capsys.readouterr().err == f"error: is a directory: {tmp_path}\n"

    # whitespace-only lines: empty, spaces, a tab, a form feed, and a
    # carriage return that universal newlines reads, with the "\n" that
    # write_trace puts after it, as one line end
    BLANKS = ["", "   ", "\t", "\x0c", "\r"]

    def test_blank_lines_ignored(self, tmp_path, capsys):
        cells = [format_trace_line(t, 1, trace_cell()) for t in (0.0, 0.5, 1.0)]
        plain = write_trace(tmp_path, cells, name="plain.txt")
        assert main(["conformance", plain, "--pcr", "1024"]) == 0
        expected = capsys.readouterr().out
        assert "cells: 3\n" in expected
        lines = [*self.BLANKS, cells[0], *self.BLANKS, cells[1], cells[2], *self.BLANKS]
        spaced = write_trace(tmp_path, lines, name="spaced.txt")
        assert main(["conformance", spaced, "--pcr", "1024"]) == 0
        assert capsys.readouterr().out == expected

    def test_refusal_after_blank_lines_names_its_own_line(self, tmp_path, capsys):
        cell = format_trace_line(0.0, 1, trace_cell())
        lines = [*self.BLANKS, cell, *self.BLANKS, "0.5 1 zz"]
        path = write_trace(tmp_path, lines)
        # each entry is one line, so the malformed one is the last
        assert main(["conformance", path, "--pcr", "1024"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:{len(lines)}: cell bytes are not valid hex\n"
        )


class TestConformanceGolden:
    # tests/data/conformance_golden.json holds the exit code and the full
    # stdout of each run, recorded before the decode memo and the fused
    # bucket loop went in; regenerate it only for a change meant to alter
    # the command's output.
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_output_matches_golden(self, tmp_path, capsys, name):
        with open(os.path.join(DATA_DIR, "conformance_golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)[name]
        path = str(tmp_path / "trace.txt")
        write_seeded_trace(path)
        code = main(["conformance", path, *GOLDEN_CONTRACT, *GOLDEN_RUNS[name]])
        assert (code, capsys.readouterr().out) == (golden["exit"], golden["stdout"])


class TestConformanceCallBudget:
    """The per-cell work of ``atmsim conformance``, counted in Python-level
    calls: one parse per line, one header decode per cell of the port and
    one bucket update per decodable cell, with the decode itself run only
    on a miss of the header memo.  No other atmsim function may be entered
    once per cell.  Of the C calls that scan a line, a well-formed trace
    makes one bounded split and one hex decode per line, and no
    whitespace test."""

    def test_calls_per_cell(self, tmp_path, capsys):
        path = str(tmp_path / "trace.txt")
        write_seeded_trace(path)
        with open(path, encoding="utf-8") as fh:
            entries = [parse_trace_line(line) for line in fh]
        port0 = [raw for _, port, raw in entries if port == 0]
        decodable = [
            raw
            for raw in port0
            if decode_header(raw[:HEADER_BYTES], InterfaceKind.UNI).status
            is not DecodeStatus.UNCORRECTABLE
        ]
        misses = len({raw[:HEADER_BYTES] for raw in port0})
        assert misses <= cell_module.DECODE_MEMO_MAX
        for memo in cell_module._decode_memos.values():
            memo.clear()

        package = os.path.dirname(cell_module.__file__) + os.sep
        calls: Counter = Counter()
        c_calls: Counter = Counter()

        def profile(frame, event, arg):
            code = frame.f_code
            if code.co_filename.startswith(package):
                if event == "call":
                    calls[code] += 1
                elif event == "c_call":
                    c_calls[getattr(arg, "__qualname__", None)] += 1

        sys.setprofile(profile)
        try:
            code = main(["conformance", path, *GOLDEN_CONTRACT, "--port", "0"])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert code == 1  # the seeded trace overruns the contract

        by_name = {getattr(c, "co_qualname", c.co_name): n for c, n in calls.items()}
        assert by_name.pop("parse_trace_line") == len(entries)
        assert by_name.pop("decode_header") == len(port0)
        assert by_name.pop("conform_update") == len(decodable)
        assert by_name.pop("_decode") == misses
        # what remains runs once per command, per memo miss or per
        # reported violation, far fewer times than there are cells
        assert len(port0) == 1000 and misses < 100
        assert {name: n for name, n in by_name.items() if n > misses + 10} == {}
        assert c_calls["str.split"] == len(entries)
        assert c_calls["bytes.fromhex"] == len(entries)
        assert c_calls["str.isspace"] == 0
