"""End-to-end CLI behavior: run/eval/plot-data, artifacts, exit codes."""

import copy
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from streamrl.checkpoint import MAGIC, load_model, save_checkpoint, save_model
from streamrl.cli import load_config, main, walk_config
from streamrl.envs import GridWorld
from streamrl.evaluation import read_metrics_jsonl
from streamrl.nn import Mlp

GRID_MAP = "S..\n...\n..G"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("STREAMRL_OUTPUT_DIR", raising=False)


def base_config(out_dir):
    return {
        "scenario": {
            "generator": "gym_benchmark",
            "env_specs": [
                {
                    "name": "grid",
                    "env": "gridworld",
                    "map": GRID_MAP,
                    "params": {"max_steps": 20},
                }
            ],
            "n_experiences": 2,
            "order": {"explicit": [0, 0]},
        },
        "strategy": {"name": "dqn", "hidden": [8], "batch_size": 4},
        "budget": {"updates_per_experience": 3, "rollout": {"steps": 2}},
        "seeds": {"env": 1, "net": 2, "sampling": 3},
        "eval": {"episodes": 2},
        "output_dir": str(out_dir),
    }


def write_config(tmp_path, config, name="config.yaml"):
    path = tmp_path / name
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # so that a config can hold an int that YAML refuses to read
    try:
        path.write_text(yaml.safe_dump(config))
    finally:
        sys.set_int_max_str_digits(limit)
    return path


def run_ok(tmp_path, config, name="config.yaml"):
    cfg = write_config(tmp_path, config, name)
    assert main(["run", str(cfg)]) == 0
    return cfg


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    for artifact in ("metrics.jsonl", "forgetting.csv", "checkpoint.bin", "config_effective.yaml"):
        assert (out / artifact).exists(), artifact
    assert (out / "metrics.jsonl").stat().st_size > 0
    stdout = capsys.readouterr().out
    assert "experience 0 (task 0)" in stdout
    assert "experience 1 (task 0)" in stdout
    assert "eval task 0: return" in stdout
    assert f"artifacts written to {out}" in stdout


def test_run_metrics_structure(tmp_path):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    records = read_metrics_jsonl(out / "metrics.jsonl")
    names = {r.metric_name for r in records}
    assert "epsilon" in names
    assert names & {"loss", "update_skipped"}
    assert any(r.phase == "eval" and r.metric_name == "eval_return" for r in records)
    # eval after each of the 2 experiences, single eval task
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert lines[0] == "after_experience,task_0"
    assert len(lines) == 3


def test_run_unknown_strategy_exit_2(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["strategy"]["name"] = "ppo"
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "strategy" in err
    assert "ppo" in err


def test_run_unknown_key_exit_2(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["surprise"] = 1
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    assert "surprise" in capsys.readouterr().err


def test_run_missing_config_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_twice_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_ok(tmp_path, base_config(out1), "a.yaml")
    run_ok(tmp_path, base_config(out2), "b.yaml")
    for artifact in ("metrics.jsonl", "forgetting.csv", "checkpoint.bin"):
        assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), artifact


def test_runtime_failure_exit_3(tmp_path, capsys, monkeypatch):
    config = base_config(tmp_path / "out")

    def broken_step(self, action):  # the config is valid; the env fails mid-run
        raise RuntimeError("sensor fault")

    monkeypatch.setattr(GridWorld, "step", broken_step)
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("runtime error: RuntimeError: sensor fault")


@pytest.mark.parametrize("name", ["a2c", "double_dqn"])
def test_other_strategies_run(tmp_path, name):
    config = base_config(tmp_path / "out")
    config["strategy"] = {"name": name, "hidden": [8]}
    run_ok(tmp_path, config)


@pytest.mark.filterwarnings("ignore:EWC wanted")
def test_wrappers_expand_into_effective_config(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"]["env_specs"][0]["wrappers"] = [
        {"time_limit": 5},
        {"frame_stack": 2},
        {"reward_clip": [-1, 1]},
        {"obs_normalize": True},
        {"action_remap": {0: 3, 1: 2, 2: 0}},
        {"reduced_actions": [0, 2]},
    ]
    config["plugins"] = [{"name": "naive"}, {"name": "ewc"}, {"name": "replay"}]
    run_ok(tmp_path, config)
    effective = yaml.safe_load((out / "config_effective.yaml").read_text())
    wrappers = effective["scenario"]["env_specs"][0]["wrappers"]
    assert wrappers == [
        {"time_limit": 5},
        {"frame_stack": 2},
        {"reward_clip": [-1.0, 1.0]},
        {"obs_normalize": True},
        {"action_remap": {0: 3, 1: 2, 2: 0}},
        {"reduced_actions": [0, 2]},
    ]
    assert all(isinstance(bound, float) for bound in wrappers[2]["reward_clip"])
    assert effective["plugins"] == [
        {"name": "naive"},
        {"name": "ewc", "lam": 100.0, "fisher_sample_count": 512},
        {"name": "replay", "capacity": 10_000, "mix_ratio": 0.5},
    ]
    # defaults were expanded too
    assert effective["strategy"]["gamma"] == 0.99
    assert effective["eval"] == {"episodes": 2, "after_each_experience": True}


def test_reward_clip_accepts_an_infinite_bound(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"]["env_specs"][0]["wrappers"] = [{"reward_clip": [float("-inf"), 0.5]}]
    run_ok(tmp_path, config)
    effective = yaml.safe_load((out / "config_effective.yaml").read_text())
    assert effective["scenario"]["env_specs"][0]["wrappers"] == [{"reward_clip": [-math.inf, 0.5]}]


DELETE = object()


def at(path, value):
    """A config edit: set the dotted `path` (list indices as numbers) to
    `value`, or remove the key when `value` is DELETE."""
    keys = [int(key) if key.isdigit() else key for key in path.split(".")]

    def edit(config):
        node = config
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = copy.deepcopy(value)

    return edit


def wrap(*wrappers):
    return at("scenario.env_specs.0.wrappers", list(wrappers))


TASKS = [
    {"name": "go", "type": "reach_goal", "duration": {"episodes": 2}},
    {"name": "stay", "type": "survive", "duration": {"episodes": 2}},
]


def task_stream(**changes):
    return at("scenario", {"generator": "task_stream", "tasks": TASKS, "scenes": [GRID_MAP],
                           **changes})


def control(**changes):
    return at("scenario", {"generator": "continual_control", "schedule": [{}, {"gravity": 11.0}],
                           **changes})


SPEC = "scenario.env_specs.0"
WRAPPER = "scenario.env_specs[0].wrappers[0]"

# (id, edit of base_config, the key path the error message must start with)
def not_utf8(config):
    """Leaves the config as it is; the test writes its file after bytes that
    are no UTF-8 (a UTF-16 byte order mark)."""


INVALID_CONFIGS = [
    # each of these once failed as a runtime error (exit 3)
    ("remap-key", wrap({"action_remap": {"a": 0}}), f"{WRAPPER}.action_remap"),
    ("remap-value", wrap({"action_remap": {0: 1.5}}), f"{WRAPPER}.action_remap"),
    ("reduced-entry", wrap({"reduced_actions": [0, "1"]}), f"{WRAPPER}.reduced_actions"),
    ("explicit-entry", at("scenario.order", {"explicit": [0, "1"]}), "scenario.order.explicit"),
    ("random-seed", at("scenario.order", {"random_seed": "x"}), "scenario.order.random_seed"),
    ("means-scalar", at(SPEC, {"name": "b", "env": "bandit", "params": {"means": 3}}),
     "scenario.env_specs[0].params.means"),
    ("means-entry", at(SPEC, {"name": "b", "env": "bandit", "params": {"means": [0, "x"]}}),
     "scenario.env_specs[0].params.means"),
    ("lr", at("strategy.lr", 0), "strategy.lr"),
    ("gamma", at("strategy.gamma", 1.5), "strategy.gamma"),
    ("lam", at("plugins", [{"name": "ewc", "lam": -1}]), "plugins[0].lam"),
    ("gravity", control(schedule=[{}, {"gravity": 0.0}]),
     "scenario: bad cart-pole parameters: schedule[1]: gravity"),
    ("stream-too-short", task_stream(n_experiences=5), "scenario.n_experiences"),
    ("remap-empty", wrap({"action_remap": {}}), "scenario.env_specs[0].wrappers: "),
    # each of these was once accepted
    ("bandit-unknown-param", at(SPEC, {"name": "b", "env": "bandit",
                                       "params": {"means": [0.0], "nois_std": 3}}),
     "scenario.env_specs[0].params"),
    ("eval-not-bool", at("eval.after_each_experience", "no"), "eval.after_each_experience"),
    ("cartpole-map", at(SPEC, {"name": "c", "env": "cartpole", "map": GRID_MAP}),
     "scenario.env_specs[0].map: a cartpole env takes no map"),
    ("bandit-map", at(SPEC, {"name": "b", "env": "bandit", "params": {"means": [0.0]}, "map": "S.G"}),
     "scenario.env_specs[0].map: a bandit env takes no map"),
    # each of these once failed only after writing config_effective.yaml
    ("task-type", task_stream(tasks=[{"type": "fly", "duration": {"episodes": 1}}]),
     "scenario.tasks[0]"),
    ("explicit-length", at("scenario.order", {"explicit": [0]}), "scenario.order"),
    ("explicit-index", at("scenario.order", {"explicit": [0, 1]}), "scenario.order"),
    # each of these was once accepted, or converted with int() or float()
    ("task-episodes-fraction",
     task_stream(tasks=[{"type": "survive", "duration": {"episodes": 2.7}}]),
     "scenario.tasks[0]"),
    ("task-episodes-bool",
     task_stream(tasks=[{"type": "survive", "duration": {"episodes": True}}]),
     "scenario.tasks[0]"),
    ("task-param-string", task_stream(tasks=[{"type": "survive", "duration": {"steps": 5},
                                              "params": {"step_reward": "5"}}]),
     "scenario.tasks[0]"),
    ("base-max-steps-fraction", control(base_params={"max_steps": 2.5}),
     "scenario: bad cart-pole parameters: max_steps"),
    ("schedule-gravity-bool", control(schedule=[{}, {"gravity": True}]),
     "scenario: bad cart-pole parameters: schedule[1]: gravity"),
    ("schedule-second-bad", control(schedule=[{"max_steps": 50}, {"max_steps": 2.5}]),
     "scenario: bad cart-pole parameters: schedule[1]: max_steps"),
    ("remap-target", wrap({"action_remap": {0: 7}}), "scenario.env_specs[0].wrappers: "),
    ("cartpole-param-bool", at(SPEC, {"name": "c", "env": "cartpole", "params": {"cart_mass": True}}),
     "scenario.env_specs[0].params: cart_mass"),
    ("grid-step-reward-inf", at(f"{SPEC}.params", {"step_reward": float("inf")}),
     "scenario.env_specs[0].params: step_reward"),
    ("grid-goal-reward-nan", at(f"{SPEC}.params", {"goal_reward": float("nan")}),
     "scenario.env_specs[0].params: goal_reward"),
    ("grid-goal-reward-string", at(f"{SPEC}.params", {"goal_reward": "1"}),
     "scenario.env_specs[0].params: goal_reward"),
    ("bandit-noise-inf", at(SPEC, {"name": "b", "env": "bandit",
                                   "params": {"means": [0.0], "noise_std": float("inf")}}),
     "scenario.env_specs[0].params: noise_std"),
    ("scene-step-reward-inf", task_stream(scene_params={"step_reward": float("inf")}),
     "scenario.scene_params: step_reward"),
    # each of these was once accepted and ignored: the task stream's rewards are its tasks'
    ("scene-step-reward", task_stream(scene_params={"step_reward": -0.5}),
     "scenario.scene_params: step_reward"),
    ("scene-goal-reward", task_stream(scene_params={"goal_reward": 500}),
     "scenario.scene_params: goal_reward is not read by the task stream; set it in tasks[i].params"),
    # each of these was once reported under the map rather than the params
    ("grid-max-steps", at(f"{SPEC}.params", {"max_steps": 0}),
     "scenario.env_specs[0].params: max_steps"),
    ("scene-max-steps", task_stream(scene_params={"max_steps": 0}),
     "scenario.scene_params: max_steps"),
    ("grid-max-steps-fraction", at(f"{SPEC}.params", {"max_steps": 2.5}),
     "scenario.env_specs[0].params: max_steps must be an integer, got 2.5"),
    ("grid-max-steps-bool", at(f"{SPEC}.params", {"max_steps": True}),
     "scenario.env_specs[0].params: max_steps must be an integer, got True"),
    ("scene-max-steps-fraction", task_stream(scene_params={"max_steps": 2.5}),
     "scenario.scene_params: max_steps must be an integer, got 2.5"),
    ("scene-max-steps-bool", task_stream(scene_params={"max_steps": True}),
     "scenario.scene_params: max_steps must be an integer, got True"),
    # each of these once wrote config_effective.yaml and metrics.jsonl, then exited 3
    ("lam-inf", at("plugins", [{"name": "ewc", "lam": float("inf")}]), "plugins[0].lam"),
    ("lr-inf", at("strategy.lr", float("inf")), "strategy.lr"),
    ("eps-start-nan", at("strategy.eps_start", float("nan")), "strategy.eps_start"),
    ("value-coef-nan", at("strategy", {"name": "a2c", "hidden": [8], "value_coef": float("nan")}),
     "strategy.value_coef"),
    # this one was once accepted, and ran with a NaN lower bound
    ("reward-clip-nan", wrap({"reward_clip": [float("nan"), 1.0]}), WRAPPER),
    # this one once failed with OverflowError (exit 3)
    ("eps-start-huge-int", at("strategy.eps_start", 10**400), "strategy.eps_start"),
    # each of these once failed with ShapeMismatch (exit 3) after training experience 0
    ("spec-env-mismatch", at("scenario.env_specs", [
        {"name": "grid", "env": "gridworld", "map": GRID_MAP},
        {"name": "pole", "env": "cartpole"},
    ]), "scenario.env_specs[1]: observation shape"),
    ("spec-wrapper-mismatch", at("scenario.env_specs", [
        {"name": "grid", "env": "gridworld", "map": GRID_MAP},
        {"name": "stacked", "env": "gridworld", "map": GRID_MAP, "wrappers": [{"frame_stack": 2}]},
    ]), "scenario.env_specs[1]: observation shape"),
    # config and seeds
    ("config-unknown", at("surprise", 1), "config: unknown key(s) ['surprise']"),
    ("config-missing", at("seeds", DELETE), "config.seeds: missing required key"),
    ("seeds-mapping", at("seeds", [1, 2, 3]), "seeds: expected a mapping"),
    ("seeds-missing", at("seeds.net", DELETE), "seeds.net: missing required key"),
    ("seeds-negative", at("seeds.env", -1), "seeds.env"),
    ("eval-unknown", at("eval.every", 1), "eval: unknown key(s)"),
    ("eval-episodes", at("eval.episodes", 0), "eval.episodes"),
    ("output-dir", at("output_dir", ""), "output_dir"),
    # scenario
    ("scenario-mapping", at("scenario", "grid"), "scenario: expected a mapping"),
    ("generator", at("scenario.generator", "atari"), "scenario.generator"),
    ("order-missing", at("scenario.order", DELETE), "scenario.order: missing required key"),
    ("order-shape", at("scenario.order", [0, 0]), "scenario.order"),
    ("order-kind", at("scenario.order", {"shuffle": 1}), "scenario.order"),
    ("explicit-list", at("scenario.order", {"explicit": 0}), "scenario.order.explicit"),
    ("env-specs-empty", at("scenario.env_specs", []), "scenario.env_specs"),
    ("n-experiences", at("scenario.n_experiences", 0), "scenario.n_experiences"),
    ("n-parallel-envs", at("scenario.n_parallel_envs", 0), "scenario.n_parallel_envs"),
    # env specs
    ("spec-unknown", at(f"{SPEC}.seed", 1), "scenario.env_specs[0]: unknown key(s)"),
    ("spec-missing", at(f"{SPEC}.env", DELETE), "scenario.env_specs[0].env: missing"),
    ("spec-params", at(f"{SPEC}.params", [1]), "scenario.env_specs[0].params"),
    ("env-kind", at(f"{SPEC}.env", "atari"), "scenario.env_specs[0].env"),
    ("grid-map-missing", at(f"{SPEC}.map", DELETE), "scenario.env_specs[0].map"),
    ("grid-map-text", at(f"{SPEC}.map", 5), "scenario.env_specs[0].map"),
    ("grid-map-format", at(f"{SPEC}.map", "S.\nX."), "scenario.env_specs[0].map"),
    ("grid-params", at(f"{SPEC}.params", {"gravity": 1}), "scenario.env_specs[0].params"),
    ("cartpole-params", at(SPEC, {"name": "c", "env": "cartpole", "params": {"mass": 1}}),
     "scenario.env_specs[0].params"),
    ("bandit-means", at(SPEC, {"name": "b", "env": "bandit"}),
     "scenario.env_specs[0].params.means"),
    ("bandit-noise", at(SPEC, {"name": "b", "env": "bandit",
                               "params": {"means": [0.0], "noise_std": -1.0}}),
     "scenario.env_specs[0].params"),
    # wrappers
    ("wrappers-list", at(f"{SPEC}.wrappers", {"time_limit": 5}), "scenario.env_specs[0].wrappers"),
    ("wrapper-shape", wrap({"time_limit": 5, "frame_stack": 2}), WRAPPER),
    ("wrapper-kind", wrap({"blur": 1}), WRAPPER),
    ("time-limit", wrap({"time_limit": 0}), WRAPPER),
    ("frame-stack", wrap({"frame_stack": 1.5}), WRAPPER),
    ("reward-clip-pair", wrap({"reward_clip": [1]}), f"{WRAPPER}.reward_clip"),
    ("reward-clip-order", wrap({"reward_clip": [1, -1]}), f"{WRAPPER}.reward_clip"),
    ("obs-normalize", wrap({"obs_normalize": False}), f"{WRAPPER}.obs_normalize"),
    ("remap-map", wrap({"action_remap": [3, 2]}), f"{WRAPPER}.action_remap"),
    ("reduced-empty", wrap({"reduced_actions": []}), f"{WRAPPER}.reduced_actions"),
    # continual_control
    ("schedule-empty", control(schedule=[]), "scenario.schedule"),
    ("schedule-entry", control(schedule=[{}, 11.0]), "scenario.schedule[1]"),
    ("base-params", control(base_params=[1]), "scenario.base_params"),
    ("cartpole-unknown", control(base_params={"mass": 1}), "scenario: bad cart-pole parameters"),
    # task_stream
    ("tasks-empty", task_stream(tasks=[]), "scenario.tasks"),
    ("task-entry", task_stream(tasks=["go"]), "scenario.tasks[0]"),
    ("scenes-empty", task_stream(scenes=[]), "scenario.scenes"),
    ("scenes-text", task_stream(scenes=[5]), "scenario.scenes"),
    ("scene-format", task_stream(scenes=["S.\nX."]), "scenario.scenes"),
    ("scene-params", task_stream(scene_params=[1]), "scenario.scene_params"),
    ("swap-shape", task_stream(swap="never"), "scenario.swap"),
    ("swap-kind", task_stream(swap={"never": True}), "scenario.swap"),
    ("swap-true", task_stream(swap={"on_task_change": 1}), "scenario.swap.on_task_change"),
    ("swap-count", task_stream(swap={"every_n_episodes": 0}), "scenario.swap"),
    ("swap-unit", task_stream(swap={"every_n_steps": 2}), "scenario: EveryNSteps"),
    # strategy
    ("strategy-mapping", at("strategy", "dqn"), "strategy: expected a mapping"),
    ("strategy-name", at("strategy.name", "ppo"), "strategy.name: unknown strategy 'ppo'"),
    ("strategy-unknown", at("strategy.value_coef", 0.5), "strategy: unknown key(s)"),
    ("hidden", at("strategy.hidden", [8, 0]), "strategy.hidden"),
    ("batch-size", at("strategy.batch_size", 0), "strategy.batch_size"),
    ("eps-start", at("strategy.eps_start", "high"), "strategy.eps_start"),
    # plugins
    ("plugins-list", at("plugins", {"name": "ewc"}), "plugins: expected a list"),
    ("plugin-mapping", at("plugins", ["ewc"]), "plugins[0]: expected a mapping"),
    ("plugin-name", at("plugins", [{"name": "si"}]), "plugins[0].name"),
    ("plugin-unknown", at("plugins", [{"name": "naive", "lam": 1}]), "plugins[0]: unknown key(s)"),
    ("fisher-samples", at("plugins", [{"name": "ewc", "fisher_sample_count": 0}]),
     "plugins[0].fisher_sample_count"),
    ("mix-ratio", at("plugins", [{"name": "replay", "mix_ratio": 2}]), "plugins[0].mix_ratio"),
    ("capacity", at("plugins", [{"name": "replay", "capacity": 0}]), "plugins[0].capacity"),
    # budget
    ("updates-missing", at("budget.updates_per_experience", DELETE),
     "budget.updates_per_experience: missing required key"),
    ("updates", at("budget.updates_per_experience", 0), "budget.updates_per_experience"),
    ("rollout-shape", at("budget.rollout", 5), "budget.rollout"),
    ("rollout-kind", at("budget.rollout", {"seconds": 5}), "budget.rollout"),
    ("rollout-count", at("budget.rollout", {"episodes": 0}), "budget.rollout"),
    # this one once failed in the YAML reader with a ValueError (exit 3)
    ("seed-5000-digits", at("seeds.env", 10**5000), "config: YAML parse error: Exceeds the limit"),
    # and this one in the file reader with a UnicodeDecodeError (exit 3)
    ("not-utf-8", not_utf8, "config: cannot read"),
]


@pytest.mark.parametrize(
    "edit, key_path",
    [row[1:] for row in INVALID_CONFIGS],
    ids=[row[0] for row in INVALID_CONFIGS],
)
def test_invalid_config_exit_2_before_any_artifact(tmp_path, capsys, edit, key_path):
    out = tmp_path / "out"
    config = base_config(out)
    edit(config)
    cfg = write_config(tmp_path, config)
    if edit is not_utf8:
        cfg.write_bytes(b"\xff\xfe" + cfg.read_bytes())
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key_path}")
    assert not out.exists()


WRAPPERS = [{"time_limit": 5}, {"frame_stack": 2}, {"reward_clip": [float("-inf"), 1]},
            {"obs_normalize": True}, {"action_remap": {0: 3, 1: 2, 2: 0}}, {"reduced_actions": [0, 2]}]


@pytest.mark.parametrize("edits", [
    [wrap(*WRAPPERS), at("budget.rollout", {"episodes": 2})],
    [at("scenario.order", {"random_seed": 4})],
    [task_stream()],
    [task_stream(swap={"every_n_episodes": 1}, n_experiences=2)],
    [task_stream(swap={"every_n_steps": 3}, scene_params={"max_steps": 9},
                 tasks=[{"type": "survive", "duration": {"steps": 7}, "params": {"step_reward": 1}}])],
], ids=["wrappers-episodes", "random-order", "on-task-change", "every-n-episodes", "every-n-steps"])
def test_walk_of_the_effective_config_is_the_effective_config(edits):
    config = base_config("out")
    for edit in edits:
        edit(config)
    effective = walk_config(config).effective
    assert walk_config(yaml.safe_load(yaml.safe_dump(effective))).effective == effective


def test_readme_yaml_blocks_are_valid_configs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.yaml"
        path.write_text(block)
        experiment = load_config(path)  # builds the scenario; trains nothing
        assert experiment.scenario.n_experiences >= 1


def test_single_final_eval_when_disabled(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["eval"] = {"episodes": 2, "after_each_experience": False}
    run_ok(tmp_path, config)
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the one final row


def test_bandit_config_requires_means(tmp_path, capsys):
    config = base_config(tmp_path / "out")
    config["scenario"]["env_specs"] = [{"name": "b", "env": "bandit"}]
    cfg = write_config(tmp_path, config)
    assert main(["run", str(cfg)]) == 2
    assert "means" in capsys.readouterr().err


def test_bandit_config_runs(tmp_path):
    config = base_config(tmp_path / "out")
    config["scenario"]["env_specs"] = [
        {"name": "b", "env": "bandit", "params": {"means": [0.0, 1.0]}}
    ]
    run_ok(tmp_path, config)


def test_task_stream_config_runs(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"] = {
        "generator": "task_stream",
        "tasks": [
            {"name": "go", "type": "reach_goal", "duration": {"episodes": 2}},
            {"name": "stay", "type": "survive", "duration": {"episodes": 2}},
        ],
        "scenes": [GRID_MAP],
        "scene_params": {"max_steps": 10},
    }
    run_ok(tmp_path, config)
    lines = (out / "forgetting.csv").read_text().splitlines()
    assert lines[0] == "after_experience,task_0,task_1"
    assert len(lines) == 3  # two experiences, eval after each


def test_continual_control_config_runs(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["scenario"] = {
        "generator": "continual_control",
        "base_params": {"max_steps": 30},
        "schedule": [{}, {"gravity": 11.0}],
    }
    config["eval"] = {"episodes": 1}
    run_ok(tmp_path, config)
    records = read_metrics_jsonl(out / "metrics.jsonl")
    assert any(r.metric_name == "eval_return" for r in records)


def test_output_dir_env_override(tmp_path, monkeypatch):
    configured = tmp_path / "configured"
    override = tmp_path / "override"
    monkeypatch.setenv("STREAMRL_OUTPUT_DIR", str(override))
    run_ok(tmp_path, base_config(configured))
    assert (override / "metrics.jsonl").exists()
    assert not configured.exists()


def test_effective_config_reproduces_run(tmp_path, monkeypatch):
    out1 = tmp_path / "one"
    run_ok(tmp_path, base_config(out1))
    out2 = tmp_path / "two"
    monkeypatch.setenv("STREAMRL_OUTPUT_DIR", str(out2))
    assert main(["run", str(out1 / "config_effective.yaml")]) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_matches_runs_final_row(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["eval", str(cfg), str(out / "checkpoint.bin")]) == 0
    assert "task 0: return" in capsys.readouterr().out
    final_row = (out / "forgetting.csv").read_text().splitlines()[-1]
    final_return = float(final_row.split(",")[1])
    eval_records = read_metrics_jsonl(out / "eval_metrics.jsonl")
    (eval_return,) = [r.value for r in eval_records if r.metric_name == "eval_return"]
    assert eval_return == final_return  # same seeds: identical to the bit


def test_eval_writes_per_episode_records(tmp_path):
    out = tmp_path / "out"
    config = base_config(out)
    config["eval"] = {"episodes": 5}
    cfg = run_ok(tmp_path, config)
    assert main(["eval", str(cfg), str(out / "checkpoint.bin")]) == 0
    records = read_metrics_jsonl(out / "eval_metrics.jsonl")
    episode_returns = [r for r in records if r.metric_name == "ep_return"]
    assert len(episode_returns) == 5  # episodes x the single eval task
    assert all(r.phase == "eval" for r in episode_returns)


def test_eval_wrong_shape_checkpoint_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    bad = tmp_path / "bad.bin"
    save_model(bad, Mlp([3, 2], heads={"q_values": 2}))
    assert main(["eval", str(cfg), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_checkpoint_exit_2(tmp_path, capsys):
    cfg = run_ok(tmp_path, base_config(tmp_path / "out"))
    assert main(["eval", str(cfg), str(tmp_path / "ghost.bin")]) == 2


@pytest.mark.parametrize("payload", [
    MAGIC + b"\x10\x00\x00",  # cut inside the header length
    MAGIC + struct.pack("<Q", 6) + b"{bad}\n",  # header is not JSON
    MAGIC + struct.pack("<Q", 2) + b"[]",  # header is not an object
    MAGIC + struct.pack("<Q", 90)  # a section shape past numpy's largest dimension
    + b'{"version": 1, "arch": {}, "sections": [{"name": "p", "shape": [0, 9223372036854775808]}]}',
], ids=["cut-length", "bad-json", "not-object", "dimension-too-large"])
def test_eval_malformed_checkpoint_exit_2(tmp_path, capsys, payload):
    cfg = run_ok(tmp_path, base_config(tmp_path / "out"))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(payload)
    assert main(["eval", str(cfg), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sections", [{}, {"params": [0.0, 1.0]}], ids=["no-params", "short-params"])
def test_eval_checkpoint_without_fitting_params_exit_2(tmp_path, capsys, sections):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    model = load_model(out / "checkpoint.bin")[0]
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, model.arch(), sections)
    capsys.readouterr()
    assert main(["eval", str(cfg), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: checkpoint has")


# ---------------------------------------------------------------------------
# plot-data
# ---------------------------------------------------------------------------


def test_plot_data_sorted_csv(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["plot-data", str(out / "metrics.jsonl"), "epsilon"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,value"
    steps = [int(line.split(",")[0]) for line in lines[1:]]
    assert steps == sorted(steps)
    # the first update of each experience skips (replay 2 < batch 4), so
    # epsilon is recorded for the remaining 2 applied updates per experience
    assert len(steps) == 4
    for line in lines[1:]:
        float(line.split(",", 1)[1])  # repr round-trips through float


def test_plot_data_unknown_metric_lists_names(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    assert main(["plot-data", str(out / "metrics.jsonl"), "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "nonsense" in err
    assert "epsilon" in err  # available names are listed


def test_plot_data_empty_filter_header_only(tmp_path, capsys):
    out = tmp_path / "out"
    run_ok(tmp_path, base_config(out))
    capsys.readouterr()
    # epsilon only exists in the train phase
    assert main(["plot-data", str(out / "metrics.jsonl"), "epsilon", "--phase", "eval"]) == 0
    assert capsys.readouterr().out == "step,value\n"


GOOD_RECORD = ('{"global_step": 1, "experience_index": 0, "phase": "train", '
               '"metric_name": "epsilon", "value": 0.5}')


def record_with(**fields):
    return json.dumps({**json.loads(GOOD_RECORD), **fields})


@pytest.mark.parametrize("bad, why", [
    ("not json", "Expecting value"),
    ('{"global_step": 2, "step_metric": "epsilon", "value": 0.5}', "unexpected keyword"),
    ("[1, 2]", "argument after ** must be a mapping"),
    (record_with(global_step="x"), "global_step 'x' is no int"),
    (record_with(global_step=2.0), "global_step 2.0 is no int"),
    (record_with(experience_index=True), "experience_index True is no int"),
    (record_with(phase=None), "phase None is no str"),
    (record_with(metric_name=3), "metric_name 3 is no str"),
    (record_with(value="oops"), "value 'oops' is no float"),
    (record_with(value=False), "value False is no float"),
])
def test_plot_data_refuses_a_malformed_line_naming_path_and_line(tmp_path, capsys, bad, why):
    path = tmp_path / "metrics.jsonl"
    path.write_text(f"{GOOD_RECORD}\n\n{bad}\n")
    assert main(["plot-data", str(path), "epsilon"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: line 3 is no metric record: ")
    assert why in captured.err and "runtime error" not in captured.err


def test_plot_data_refuses_a_file_that_is_no_utf8(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(b"\xff\xfe" + GOOD_RECORD.encode("utf-16-le") + b"\n")
    assert main(["plot-data", str(path), "epsilon"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "runtime error" not in captured.err


def test_plot_data_reads_an_int_value_and_every_record_it_wrote(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    path.write_text(f"{record_with(global_step=3, value=2)}\n{GOOD_RECORD}\n")
    assert main(["plot-data", str(path), "epsilon"]) == 0
    assert capsys.readouterr().out == "step,value\n1,0.5\n3,2\n"


def test_eval_refuses_a_checkpoint_with_a_nan_parameter(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = run_ok(tmp_path, base_config(out))
    model, sections = load_model(out / "checkpoint.bin")
    params = model.flatten()
    params[1] = float("nan")
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, model.arch(), {"params": params, **sections})
    capsys.readouterr()
    assert main(["eval", str(cfg), str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: section 'params' holds a non-finite value")
    assert "runtime error" not in captured.err


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(out))
    proc = subprocess.run(
        [sys.executable, "-m", "streamrl", "run", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "checkpoint.bin").exists()
    assert "artifacts written" in proc.stdout
