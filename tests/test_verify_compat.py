"""Back-compat and robustness of the on-disk verify inputs.

Reproducer JSON, checkpoint journal headers and ``REPRO_RTL_ENGINE``
written by earlier releases may name the retired ``vectorized`` engine
(and reproducers a ``lanes`` width); they must load and replay on the
engine that replaced it with identical outcomes.  A malformed
reproducer is rejected with a named field and exit 2, never a
traceback.  Importing or running the verifier pulls in no NumPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.rtl.simulator import resolve_engine
from repro.verify import (
    BatchConfig,
    BatchRunner,
    make_cases,
    reproducer_dict,
    run_case,
)

SRC = str(Path(repro.__file__).resolve().parents[1])


def _reproducer():
    """A real reproducer: the JSON ``--out`` writes for one case."""
    config = BatchConfig(cases=1, seed=3, cycles=120)
    return reproducer_dict(make_cases(config)[0])


def _replay(tmp_path, monkeypatch, data, name="repro.json"):
    """Replay ``data`` through ``verify --repro``; return the exit code
    and the case and outcome ``run_case`` saw."""
    recorded = {}

    def spy(case):
        recorded["case"] = case
        recorded["outcome"] = run_case(case)
        return recorded["outcome"]

    monkeypatch.setattr("repro.verify.run_case", spy)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    code = main(["verify", "--repro", str(path)])
    return code, recorded["case"], recorded["outcome"]


# -- the retired engine name -----------------------------------------------


def test_retired_engine_name_resolves_to_compiled(monkeypatch):
    assert resolve_engine("vectorized") == "compiled"
    monkeypatch.setenv("REPRO_RTL_ENGINE", "vectorized")
    assert resolve_engine(None) == "compiled"
    assert BatchConfig(cases=1).engine == "compiled"


def test_cli_rejects_retired_engine_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--engine", "vectorized", "--cases", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_rejects_lanes_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lanes", "64", "--cases", "1"])
    assert exc.value.code == 2


def test_legacy_reproducer_replays_like_compiled(
    tmp_path, monkeypatch, capsys
):
    data = _reproducer()
    assert "rtl-sp" in data["styles"]
    assert "lanes" not in data
    legacy = {**data, "engine": "vectorized", "lanes": 64}
    current = {**data, "engine": "compiled"}
    legacy_code, legacy_case, legacy_outcome = _replay(
        tmp_path, monkeypatch, legacy, "legacy.json"
    )
    code, case, outcome = _replay(
        tmp_path, monkeypatch, current, "current.json"
    )
    capsys.readouterr()
    assert legacy_code == code == 0
    assert legacy_case.engine == case.engine == "compiled"
    assert legacy_case == case
    assert legacy_outcome == outcome
    assert outcome.checks > 0


def _outcome_records(path):
    return sorted(
        (
            line
            for line in path.read_text().splitlines()
            if json.loads(line)["kind"] == "outcome"
        ),
        key=lambda line: json.loads(line)["case"],
    )


def test_legacy_journal_resumes_to_fresh_record_set(tmp_path):
    config = BatchConfig(
        cases=6, seed=5, cycles=120, styles=("fsm", "sp", "rtl-sp")
    )
    fresh = tmp_path / "fresh.jsonl"
    BatchRunner(config, checkpoint=fresh).run()
    lines = fresh.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["config"]["engine"] == "compiled"
    header["config"]["engine"] = "vectorized"
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text(
        "\n".join([json.dumps(header, sort_keys=True), *lines[1:3]])
        + "\n"
    )
    BatchRunner(config, checkpoint=legacy, resume=True).run()
    assert _outcome_records(legacy) == _outcome_records(fresh)


def test_journal_with_unknown_engine_is_still_rejected(tmp_path):
    config = BatchConfig(cases=2, seed=5, cycles=60, styles=("fsm",))
    path = tmp_path / "journal.jsonl"
    BatchRunner(config, checkpoint=path).run()
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config"]["engine"] = "warp-drive"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(ValueError, match="mismatched: engine"):
        BatchRunner(config, checkpoint=path, resume=True).run()


# -- malformed reproducers -------------------------------------------------


REQUIRED_KEYS = ("name", "seed", "processes", "channels", "sources", "sinks")


@pytest.mark.parametrize("key", REQUIRED_KEYS)
def test_reproducer_missing_required_key_is_a_named_error(
    tmp_path, capsys, key
):
    data = _reproducer()
    del data[key]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--repro", str(path)]) == 2
    err = capsys.readouterr().err
    assert (
        f"error: reproducer {path}: missing or invalid field '{key}'"
        in err
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key,value",
    [("cycles", "many"), ("processes", 7), ("engine", "warp-drive")],
)
def test_reproducer_invalid_field_is_a_named_error(
    tmp_path, capsys, key, value
):
    data = {**_reproducer(), key: value}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--repro", str(path)]) == 2
    assert f"missing or invalid field '{key}'" in capsys.readouterr().err


def test_reproducer_that_is_not_an_object_is_rejected(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["verify", "--repro", str(path)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


# -- no NumPy --------------------------------------------------------------


def _python(tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_RTL_ENGINE", None)
    return subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_importing_verify_does_not_import_numpy(tmp_path):
    result = _python(
        tmp_path,
        "-c",
        "import sys, repro.verify; print('numpy' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_verify_run_does_not_import_numpy(tmp_path):
    # -X importtime logs every module the run imports to stderr.
    result = _python(
        tmp_path, "-X", "importtime", "-m", "repro", "verify",
        "--cases", "2",
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "zero divergences" in result.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.verify.runner" in imported
    assert not any(
        name == "numpy" or name.startswith("numpy.") for name in imported
    )
