"""Where names live: the package root names the run API only, and only
``atmsim.lane`` speaks the LE-ARP control format."""

import re
from pathlib import Path

import atmsim

RUN_API = [
    "Engine",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "ScenarioInvalid",
    "build",
    "load_scenario",
    "preflight",
    "run",
    "validate_scenario",
]

LE_ARP_NAMES = re.compile(
    r"\b(OP_ARP_REQUEST|OP_ARP_REPLY|decode_control|encode_arp_request|encode_arp_reply)\b"
)


def test_package_root_names_the_run_api_only():
    assert sorted(atmsim.__all__) == RUN_API
    for name in RUN_API:
        assert getattr(atmsim, name) is not None


def test_only_lane_names_the_le_arp_codec():
    src = Path(atmsim.__file__).parent
    speakers = sorted(
        path.name for path in src.glob("*.py") if LE_ARP_NAMES.search(path.read_text())
    )
    assert speakers == ["lane.py"]
