"""Golden reports: the sha256 of what the sphmach commands print.

Each case runs ``sphmach --json <command>`` from the root of the
repository, so the report's ``inputs`` name the files as the README
does, and pins the exit code and the digest of stdout.  The commands
are those of the README, the JSON form of ``split``, ``validate`` and
``portrait`` on every machine fixture, and ``classify-twist`` from two
states of the corabbit cycle, which print alike.  A change that keeps the
outputs byte-identical keeps every digest here.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from sphmach import cli

ROOT = Path(__file__).resolve().parents[1]

# the corabbit cycle, printed from its least state whatever the start
CORABBIT = "fee437903e3bcb63324d82f47f5c271e823d572b6c7697c6feed62dab81c92d1"

REPORTS = {
    "validate machines/centralizer7.mach":
        (0, "4d2f16f01d482ac8652198b17641593240e26b75fefdfaf4bb93835c2165dd6b"),
    "monodromy machines/fbiset.mach":
        (0, "db9e47e1816b1598ef496398bcb8a0a9c8df112ffd63dd7bac3168497d69507f"),
    "lifts machines/centralizer7.mach 'x2*x3*x4*x5'":
        (0, "261be67063ed2b5f7a1c14a65ce41734d9931aca67d6d836f2855682896f6428"),
    "thurston-matrix machines/centralizer7.mach":
        (0, "b3a1d9908ce3176363c59b1709b42bb0444b8c97d9b3ebf9f11e61e835864c0d"),
    "obstructed machines/centralizer7.mach":
        (0, "22f8e768a83ff13830e5177e66a3c155e9404caf182a9079813ee5a0ebdceb75"),
    "solve-twists machines/centralizer7.mach --theta '2*a,2*b'":
        (0, "b5fb2b50a9062f24c9c936a055ebd8bf5dc1578a7772187098a2e7156a9209c7"),
    "split machines/centralizer7.mach --dot":
        (0, "65ae5255371c929258e4159a8a05cf3c8c8f25420a11d7dbd242c37362e09107"),
    "split machines/centralizer7.mach":
        (0, "94fcb185c203c05fbb853d53bf469a5d5e22923b8ce8421284624b887a37b970"),
    "classify-twist machines/rabbit.mcb 't^3'":
        (0, "6f56d05c1981157a3a39fa419d61ee882dd126da2edbaad0b89ed9ecfbe81328"),
    "classify-twist machines/rabbit.mcb 't^-1'": (0, CORABBIT),
    "classify-twist machines/rabbit.mcb 's^-1'": (0, CORABBIT),
    "iso machines/fbiset.mach machines/fbiset.mach":
        (0, "87cdc273da0d6564f7d9fa156b935eee4cad9581d5b75df2221f88aa9da146a3"),
    "validate machines/z2.mach":
        (0, "512560e1bd84e4791b8cb34203b8eb6b97c3465f5d6289b088d9a733269830a8"),
    "validate machines/fbiset.mach":
        (0, "1507997d8fb65b183b4eb768f26b1127a644aba538179a27f346504f09edac15"),
    "validate machines/z5belyi.mach":
        (0, "a0d13ef0b1475d4f3b32611a219b1627751c958c491f7e63b02af3abbad6583e"),
    "portrait machines/z2.mach":
        (0, "6314e19cd5e8b57ecaf4d3c4d71dad62a830c43ef4963e7358e2d4cfb717d643"),
    "portrait machines/fbiset.mach":
        (0, "d92cfd2f96364a376092175dad0bc7502575c2faa6b4f13850e2a0042a6eaf96"),
    "portrait machines/z5belyi.mach":
        (0, "acd661f3836a30aa3e68bb9735e370810b097267b86d219770e1b1765a60e263"),
    "portrait machines/centralizer7.mach":
        (0, "2ba405accfaeb2a2753e01706569e83d63c51a148f3827c91eeda29eb6aa9d8d"),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _run(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(["--json"] + argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_report_digest(command, capsys, monkeypatch):
    code, out = _run(shlex.split(command), capsys, monkeypatch)
    assert (code, _sha(out)) == REPORTS[command]


def test_mcbiset_report_and_file_digests(tmp_path, capsys, monkeypatch):
    # sphmach mcbiset machines/z5belyi.mach -o /tmp/z5.mcb; the report
    # names the written path, which is left out of its digest
    path = tmp_path / "z5.mcb"
    code, out = _run(["mcbiset", "machines/z5belyi.mach", "-o", str(path)],
                     capsys, monkeypatch)
    report = json.loads(out)
    assert report["result"].pop("written") == str(path)
    assert (code, _sha(json.dumps(report, sort_keys=True)),
            _sha(path.read_bytes())) == (
        0, "e80b9a41f8d5cb0a2cf02541e796ad113cd46155b6c81143bfebb629063cea19",
        "ab93b165e675655da0f8ac7c6b83645f8ea7c72a218b70817ef4375d3ac5cc8b")
