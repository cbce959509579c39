"""``python -m repro.scenario``: the one CLI over every acceptance
scenario, and the plan loaders behind its ``--plan`` flag."""

from __future__ import annotations

import json

import pytest

from repro.chaos.plan import ChaosPlan
from repro.chaos.scenarios import run_agg_chaos, run_cache_chaos
from repro.collective.scenarios import run_collective_chaos
from repro.rpc.scenarios import run_rpc_chaos
from repro.scenario import COMMON_FLAGS, SCENARIOS, build_arg_parser, main
from repro.service.workload import ServicePlan, default_service_plan, run_service_plan

#: each scenario's runner called directly, as the CLI calls it with
#: ``--seed 7`` (plus ``--no-baseline`` where that applies).
DIRECT = {
    "cache": lambda: run_cache_chaos(7),
    "agg": lambda: run_agg_chaos(7),
    "collective": lambda: run_collective_chaos(7, baseline=False),
    "rpc": lambda: run_rpc_chaos(7, baseline=False),
    "service": lambda: run_service_plan(default_service_plan(7)),
}

#: every optional flag, with arguments that would be valid where it applies.
OPTIONAL = {"loss": ["--loss", "0.1"], "no_baseline": ["--no-baseline"], "op": ["--op", "allgather"]}


def _flags(name: str) -> list[str]:
    return ["--no-baseline"] if "no_baseline" in SCENARIOS[name].flags else []


def test_registry_and_parser_agree():
    assert set(DIRECT) == set(SCENARIOS)
    dests = {a.dest for a in build_arg_parser()._actions} - {"help", "scenario"}
    assert dests == COMMON_FLAGS | set(OPTIONAL)
    assert len(dests) == 9
    for spec in SCENARIOS.values():
        assert spec.flags <= set(OPTIONAL)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_cli_digest_matches_runner_and_survives_plan_round_trip(name, tmp_path, capsys):
    assert main([name, "--json", *_flags(name)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["digest"] == DIRECT[name]().digest
    assert "metrics" not in out

    assert main([name, "--dump-plan"]) == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(capsys.readouterr().out)
    assert main([name, "--plan", str(plan_file), "--json", *_flags(name)]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == out["digest"]


@pytest.mark.parametrize(
    "name,flag",
    [(n, f) for n in SCENARIOS for f in OPTIONAL if f not in SCENARIOS[n].flags],
)
def test_flag_that_does_not_apply_is_a_usage_error(name, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, *OPTIONAL[flag]])
    assert exc.value.code == 2
    assert "does not apply" in capsys.readouterr().err


def test_plan_file_excludes_default_plan_shaping(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["agg", "--plan", str(plan_file), "--no-crash"])
    assert exc.value.code == 2


# -- malformed plan files: a ValueError from the loader, exit 2 from the CLI ------
MALFORMED = [
    "[]",
    '{"default_link": {"bogus": 1}}',
    '{"default_link": {"loss": "x"}}',
    '{"default_link": {"loss": 1.5}}',
    '{"events": [{"at_ns": 1}]}',
    '{"events": [{"at_ns": 1, "kind": "explode"}]}',
    "not json",
]


@pytest.mark.parametrize("loader", [ChaosPlan, ServicePlan], ids=lambda c: c.__name__)
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_plan_is_a_value_error(loader, text):
    with pytest.raises(ValueError):
        loader.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"events": [{"at_ns": 1, "kind": "crash", "node": "x9"}]}',
        '{"links": {"d1-h1": {"reorder": 0.5, "reorder_delay_ns": 0}}}',
        '{"seed": "7"}',
    ],
)
def test_chaos_plan_rejects_bad_values(text):
    with pytest.raises(ValueError):
        ChaosPlan.from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"fabric": {"switches": [{"id": 1, "free_bogus": 3}]}}',
        '{"fabric": {"links": [["d1"]]}}',
        '{"events": [{"kind": "submit", "tenant": "t", "app": "nope", "hosts": [1]}]}',
        '{"events": [{"kind": "crash"}]}',
        '{"horizon_ms": [1]}',
    ],
)
def test_service_plan_rejects_bad_values(text):
    with pytest.raises(ValueError):
        ServicePlan.from_json(text)


def test_valid_plans_still_load():
    assert ServicePlan.from_json(default_service_plan(3).to_json()).seed == 3
    assert ChaosPlan.from_json("{}").default_link is None


@pytest.mark.parametrize("name", ["cache", "service"])
@pytest.mark.parametrize("text", ["[]", '{"events": [{"at_ns": 1}]}'])
def test_cli_rejects_malformed_plan_with_one_line(name, text, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(text)
    assert main([name, "--plan", str(plan_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_rejects_missing_plan_file(tmp_path, capsys):
    assert main(["rpc", "--plan", str(tmp_path / "nope.json")]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_rejects_out_of_range_loss(capsys):
    assert main(["agg", "--loss", "2", "--dump-plan"]) == 2
    assert "probability" in capsys.readouterr().err
