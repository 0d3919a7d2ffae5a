"""Config-driven experiment runner.

    streamrl run <config.yaml>
    streamrl eval <config.yaml> <checkpoint.bin>
    streamrl plot-data <metrics.jsonl> <metric_name> [--phase P]

A run builds the scenario, strategy and plugins declared in the YAML config,
trains with all randomness pinned to the config's seeds, and leaves four
artifacts in output_dir: metrics.jsonl, forgetting.csv, checkpoint.bin, and
config_effective.yaml (the config with every default expanded, sufficient to
reproduce the run byte for byte). STREAMRL_OUTPUT_DIR overrides output_dir.

Exit codes: 0 success, 2 config/validation error (the message names the
offending key), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

from .benchmarks import (
    EnvSpec,
    Explicit,
    RandomSample,
    RLScenario,
    continual_control_generator,
    gym_benchmark_generator,
)
from .checkpoint import CheckpointError, restore_into, save_model
from .core_env import (
    ActionRemap,
    EnvError,
    FrameStack,
    ObservationNormalize,
    ReducedActionSet,
    RewardClip,
    TimeLimit,
)
from .envs import Bandit, BanditParams, CartPole, CartPoleParams, GridWorld, parse_scene
from .evaluation import ForgettingMatrix, JsonlLogger, MetricsCollector, read_metrics_jsonl
from .nn import Adam, Mlp
from .plugins import EwcPlugin, NaivePlugin, ReplayPlugin
from .task_stream import (
    EveryNEpisodes,
    EveryNSteps,
    OnTaskChange,
    StreamExhausted,
    task_from_config,
    task_stream_benchmark_generator,
)
from .training import A2cStrategy, DqnStrategy, Episodes, Steps, TrainingBudget

EVAL_SEED_OFFSET = 100_000


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending key."""


def _check_keys(section: dict, path: str, required: tuple, optional: tuple) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(section).__name__}")
    unknown = sorted(set(section) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{path}.{key}: missing required key")


def _fields(section: dict, path: str, fields: dict, required: tuple = ()) -> dict:
    """Checks `section` against `fields` ({key: (check, default)}) and returns
    every field's checked value, with the default for an absent key. Keys in
    `required` must be present; the caller checks their values."""
    _check_keys(section, path, required, tuple(fields))
    return {
        key: check(section.get(key, default), f"{path}.{key}")
        for key, (check, default) in fields.items()
    }


def _one_key(value, message: str) -> tuple:
    if not isinstance(value, dict) or len(value) != 1:
        raise ConfigError(message)
    (key, arg), = value.items()
    return key, arg


def _integer(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _positive_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path}: expected a positive integer, got {value!r}")
    return value


def _seed(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{path}: expected a non-negative integer, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _number_where(holds: Callable[[float], bool], requirement: str) -> Callable:
    """A number check that also requires `holds(value)`."""

    def check(value, path: str) -> float:
        value = _number(value, path)
        if not holds(value):
            raise ConfigError(f"{path}: must {requirement}")
        return value

    return check


_unit_interval = _number_where(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_positive = _number_where(lambda v: v > 0.0, "be > 0")
_non_negative = _number_where(lambda v: v >= 0.0, "be >= 0")


def _widths(value, path: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value
    ):
        raise ConfigError(f"{path}: expected a list of positive layer widths")
    return list(value)


# ---------------------------------------------------------------------------
# The config walk. Each function checks its section once and returns the
# default-expanded ("effective") form together with what that form builds.
# ---------------------------------------------------------------------------


def _walk_wrappers(entries, path: str) -> tuple[list, tuple]:
    if not isinstance(entries, list):
        raise ConfigError(f"{path}: expected a list")
    effective, specs = [], []
    for i, entry in enumerate(entries):
        where = f"{path}[{i}]"
        kind, arg = _one_key(entry, f"{where}: each wrapper is a one-key map")
        if kind == "time_limit":
            arg = _positive_int(arg, where)
            spec = TimeLimit(arg)
        elif kind == "frame_stack":
            arg = _positive_int(arg, where)
            spec = FrameStack(arg)
        elif kind == "reward_clip":
            if not isinstance(arg, (list, tuple)) or len(arg) != 2:
                raise ConfigError(f"{where}.reward_clip: expected [lo, hi]")
            arg = [_number(arg[0], where), _number(arg[1], where)]
            if arg[0] > arg[1]:
                raise ConfigError(f"{where}.reward_clip: expected lo <= hi, got {arg}")
            spec = RewardClip(arg[0], arg[1])
        elif kind == "obs_normalize":
            if arg is not True:
                raise ConfigError(f"{where}.obs_normalize: only 'true' is accepted")
            spec = ObservationNormalize()
        elif kind == "action_remap":
            if not isinstance(arg, dict):
                raise ConfigError(f"{where}.action_remap: expected a {{new: inner}} map")
            where = f"{where}.action_remap"
            arg = {_integer(k, where): _integer(v, where) for k, v in arg.items()}
            spec = ActionRemap.from_dict(arg)
        elif kind == "reduced_actions":
            if not isinstance(arg, list) or not arg:
                raise ConfigError(f"{where}.reduced_actions: expected a non-empty list")
            arg = [_integer(a, f"{where}.reduced_actions") for a in arg]
            spec = ReducedActionSet(tuple(arg))
        else:
            raise ConfigError(f"{where}: unknown wrapper {kind!r}")
        effective.append({kind: arg})
        specs.append(spec)
    return effective, tuple(specs)


def _walk_env_spec(entry: dict, path: str) -> tuple[dict, EnvSpec]:
    _check_keys(entry, path, required=("name", "env"), optional=("map", "params", "wrappers"))
    name = entry["name"]
    kind = entry["env"]
    params = entry.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{path}.params: expected a mapping")
    wrappers, specs = _walk_wrappers(entry.get("wrappers", []), f"{path}.wrappers")
    effective = {"name": name, "env": kind, "params": dict(params), "wrappers": wrappers}
    if kind == "gridworld":
        if not isinstance(entry.get("map"), str):
            raise ConfigError(f"{path}.map: gridworld env needs a text map")
        effective["map"] = entry["map"]
        try:
            parse_scene(entry["map"])  # the map's own faults first, then the params'
        except ValueError as err:
            raise ConfigError(f"{path}.map: {err}")
        try:
            scene = parse_scene(entry["map"], **params)
        except TypeError:
            raise ConfigError(f"{path}.params: not valid gridworld scene fields")
        except ValueError as err:
            raise ConfigError(f"{path}.params: {err}")
        factory = lambda scene=scene: GridWorld(scene)  # noqa: E731
    elif kind == "cartpole":
        try:
            cp = CartPoleParams().override(**params)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}.params: {err}")
        factory = lambda cp=cp: CartPole(cp)  # noqa: E731
    elif kind == "bandit":
        if "means" not in params:
            raise ConfigError(f"{path}.params.means: bandit env needs arm means")
        if not isinstance(params["means"], list):
            raise ConfigError(f"{path}.params.means: expected a list of numbers")
        checked = {
            "means": [_number(m, f"{path}.params.means") for m in params["means"]],
            "noise_std": _number(params.get("noise_std", 0.0), f"{path}.params.noise_std"),
        }
        try:
            bp = BanditParams(**{**params, **checked})
        except (TypeError, ValueError) as err:
            raise ConfigError(f"{path}.params: {err}")
        effective["params"] = {"means": list(bp.means), "noise_std": bp.noise_std}
        factory = lambda bp=bp: Bandit(bp)  # noqa: E731
    else:
        raise ConfigError(
            f"{path}.env: unknown env {kind!r} (choose from gridworld, cartpole, bandit)"
        )
    return effective, EnvSpec(name=name, factory=factory, wrappers=specs)


def _walk_scenario(section: dict) -> tuple[dict, RLScenario]:
    if not isinstance(section, dict):
        raise ConfigError("scenario: expected a mapping")
    generator = section.get("generator")
    if generator == "gym_benchmark":
        _check_keys(
            section,
            "scenario",
            required=("generator", "env_specs", "n_experiences", "order"),
            optional=("n_parallel_envs",),
        )
        order_kind, order_arg = _one_key(
            section["order"], "scenario.order: one-key map {explicit: [...]} or {random_seed: s}"
        )
        if order_kind == "explicit":
            if not isinstance(order_arg, list):
                raise ConfigError("scenario.order.explicit: expected a list of spec indices")
            order_arg = [_integer(i, "scenario.order.explicit") for i in order_arg]
            order = Explicit(tuple(order_arg))
        elif order_kind == "random_seed":
            order_arg = _seed(order_arg, "scenario.order.random_seed")
            order = RandomSample(order_arg)
        else:
            raise ConfigError(f"scenario.order: unknown order kind {order_kind!r}")
        if not isinstance(section["env_specs"], list) or not section["env_specs"]:
            raise ConfigError("scenario.env_specs: expected a non-empty list")
        walked = [
            _walk_env_spec(entry, f"scenario.env_specs[{i}]")
            for i, entry in enumerate(section["env_specs"])
        ]
        # one network serves every experience, so every spec's env (wrappers
        # included) must match the first one's observation shape and actions
        envs = []
        for i, (_, spec) in enumerate(walked):
            try:
                envs.append(spec.build())
            except EnvError as err:  # a wrapper that does not fit its env's spaces
                raise ConfigError(f"scenario.env_specs[{i}].wrappers: {err}")
        first = (envs[0].observation_space.shape, envs[0].action_space)
        for i, env in enumerate(envs[1:], 1):
            if (env.observation_space.shape, env.action_space) != first:
                raise ConfigError(
                    f"scenario.env_specs[{i}]: observation shape "
                    f"{env.observation_space.shape} and {env.action_space} differ from "
                    f"env_specs[0]'s {first[0]} and {first[1]}"
                )
        effective = {
            "generator": "gym_benchmark",
            "env_specs": [spec_eff for spec_eff, _ in walked],
            "n_experiences": _positive_int(section["n_experiences"], "scenario.n_experiences"),
            "order": {order_kind: order_arg},
            "n_parallel_envs": _positive_int(
                section.get("n_parallel_envs", 1), "scenario.n_parallel_envs"
            ),
        }
        try:
            scenario = gym_benchmark_generator(
                [spec for _, spec in walked],
                n_experiences=effective["n_experiences"],
                order=order,
                n_parallel_envs=effective["n_parallel_envs"],
            )
        except ValueError as err:
            raise ConfigError(f"scenario.order: {err}")
        return effective, scenario
    if generator == "continual_control":
        _check_keys(
            section,
            "scenario",
            required=("generator", "schedule"),
            optional=("base_params", "n_parallel_envs"),
        )
        if not isinstance(section["schedule"], list) or not section["schedule"]:
            raise ConfigError("scenario.schedule: expected a non-empty list of override maps")
        base = section.get("base_params", {})
        if not isinstance(base, dict):
            raise ConfigError("scenario.base_params: expected a mapping")
        for i, overrides in enumerate(section["schedule"]):
            if not isinstance(overrides, dict):
                raise ConfigError(f"scenario.schedule[{i}]: expected a mapping")
        effective = {
            "generator": "continual_control",
            "base_params": dict(base),
            "schedule": [dict(s) for s in section["schedule"]],
            "n_parallel_envs": _positive_int(
                section.get("n_parallel_envs", 1), "scenario.n_parallel_envs"
            ),
        }
        try:
            scenario = continual_control_generator(
                CartPoleParams().override(**base),
                effective["schedule"],
                n_parallel_envs=effective["n_parallel_envs"],
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"scenario: bad cart-pole parameters: {err}")
        return effective, scenario
    if generator == "task_stream":
        _check_keys(
            section,
            "scenario",
            required=("generator", "tasks", "scenes"),
            optional=("swap", "scene_params", "n_experiences"),
        )
        if not isinstance(section["tasks"], list) or not section["tasks"]:
            raise ConfigError("scenario.tasks: expected a non-empty list")
        texts = section["scenes"]
        if not isinstance(texts, list) or not texts or not all(isinstance(t, str) for t in texts):
            raise ConfigError("scenario.scenes: expected a non-empty list of text maps")
        swap_kind, swap_arg = _one_key(
            section.get("swap", {"on_task_change": True}),
            "scenario.swap: one-key map among on_task_change/every_n_episodes/every_n_steps",
        )
        if swap_kind == "on_task_change":
            if swap_arg is not True:
                raise ConfigError("scenario.swap.on_task_change: only 'true' is accepted")
            policy = OnTaskChange()
        elif swap_kind == "every_n_episodes":
            swap_arg = _positive_int(swap_arg, "scenario.swap")
            policy = EveryNEpisodes(swap_arg)
        elif swap_kind == "every_n_steps":
            swap_arg = _positive_int(swap_arg, "scenario.swap")
            policy = EveryNSteps(swap_arg)
        else:
            raise ConfigError(f"scenario.swap: unknown swap policy {swap_kind!r}")
        scene_params = section.get("scene_params", {})
        if not isinstance(scene_params, dict):
            raise ConfigError("scenario.scene_params: expected a mapping")
        tasks, durations = [], []
        for i, entry in enumerate(section["tasks"]):
            if not isinstance(entry, dict):
                raise ConfigError(f"scenario.tasks[{i}]: expected a mapping")
            try:
                task, duration = task_from_config(entry)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"scenario.tasks[{i}]: {err}")
            tasks.append(task)
            durations.append(duration)
        try:
            for text in texts:  # the maps' own faults first, then the params'
                parse_scene(text)
        except ValueError as err:
            raise ConfigError(f"scenario.scenes: {err}")
        try:
            scenes = [parse_scene(text, **scene_params) for text in texts]
        except (TypeError, ValueError) as err:
            raise ConfigError(f"scenario.scene_params: {err}")
        effective = {
            "generator": "task_stream",
            "tasks": [dict(t) for t in section["tasks"]],
            "scenes": list(texts),
            "scene_params": dict(scene_params),
            "swap": {swap_kind: swap_arg},
        }
        if "n_experiences" in section:
            effective["n_experiences"] = _positive_int(
                section["n_experiences"], "scenario.n_experiences"
            )
        try:
            scenario = task_stream_benchmark_generator(
                tasks,
                durations,
                scenes,
                swap_policy=policy,
                n_experiences=effective.get("n_experiences"),
            )
        except StreamExhausted as err:
            raise ConfigError(f"scenario.n_experiences: {err}")
        except ValueError as err:
            raise ConfigError(f"scenario: {err}")
        return effective, scenario
    raise ConfigError(
        f"scenario.generator: unknown generator {generator!r} "
        "(choose from gym_benchmark, continual_control, task_stream)"
    )


def _walk_strategy(section: dict, seeds: dict) -> tuple[dict, Callable]:
    """Returns the effective strategy section and a function
    (obs_dim, n_actions, budget, metrics) -> strategy."""
    if not isinstance(section, dict):
        raise ConfigError("strategy: expected a mapping")
    name = section.get("name")
    fields = {
        "gamma": (_unit_interval, 0.99),
        "lr": (_positive, 0.001),
        "hidden": (_widths, [64, 64]),
    }
    # heads: output name -> width, where None means one output per action
    if name == "a2c":
        fields.update(value_coef=(_number, 0.5), entropy_coef=(_number, 0.01))
        cls, heads, extra = A2cStrategy, {"policy_logits": None, "value": 1}, {}
    elif name in ("dqn", "double_dqn"):
        fields.update(
            batch_size=(_positive_int, 32),
            replay_capacity=(_positive_int, 10_000),
            target_sync_period=(_positive_int, 100),
            eps_start=(_number, 1.0),
            eps_end=(_number, 0.05),
            eps_decay_fraction=(_number, 0.1),
        )
        cls, heads = DqnStrategy, {"q_values": None}
        extra = {"double": name == "double_dqn", "replay_seed": seeds["sampling"] + 1}
    else:
        raise ConfigError(
            f"strategy.name: unknown strategy {name!r} (choose from dqn, double_dqn, a2c)"
        )
    effective = {"name": name, **_fields(section, "strategy", fields, required=("name",))}
    hyper = {key: effective[key] for key in fields if key not in ("lr", "hidden")}

    def build(obs_dim: int, n_actions: int, budget: TrainingBudget, metrics):
        widths = {head: width or n_actions for head, width in heads.items()}
        sizes = [obs_dim] + effective["hidden"] + [sum(widths.values())]
        return cls(
            Mlp(sizes, heads=widths, seed=seeds["net"]),
            Adam(effective["lr"]),
            budget,
            env_seed=seeds["env"],
            eval_env_seed=seeds["env"] + EVAL_SEED_OFFSET,
            metrics=metrics,
            action_seed=seeds["sampling"],
            **hyper,
            **extra,
        )

    return effective, build


def _walk_plugins(entries, seeds: dict) -> tuple[list, list]:
    if entries is None:
        entries = []
    if not isinstance(entries, list):
        raise ConfigError("plugins: expected a list")
    effective, plugins = [], []
    for i, entry in enumerate(entries):
        path = f"plugins[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: expected a mapping")
        name = entry.get("name")
        if name == "naive":
            cls, fields, extra = NaivePlugin, {}, {}
        elif name == "ewc":
            cls, extra = EwcPlugin, {}
            fields = {"lam": (_non_negative, 100.0), "fisher_sample_count": (_positive_int, 512)}
        elif name == "replay":
            cls, extra = ReplayPlugin, {"seed": seeds["sampling"] + 2}
            fields = {"capacity": (_positive_int, 10_000), "mix_ratio": (_unit_interval, 0.5)}
        else:
            raise ConfigError(
                f"{path}.name: unknown plugin {name!r} (choose from naive, ewc, replay)"
            )
        values = _fields(entry, path, fields, required=("name",))
        effective.append({"name": name, **values})
        plugins.append(cls(**values, **extra))
    return effective, plugins


def _walk_budget(section: dict) -> tuple[dict, TrainingBudget]:
    _check_keys(section, "budget", required=("updates_per_experience",), optional=("rollout",))
    updates = _positive_int(section["updates_per_experience"], "budget.updates_per_experience")
    kind, n = _one_key(
        section.get("rollout", {"steps": 5}),
        "budget.rollout: one-key map {steps: n} or {episodes: n}",
    )
    conditions = {"steps": Steps, "episodes": Episodes}
    if kind not in conditions:
        raise ConfigError(f"budget.rollout: unknown rollout condition {kind!r}")
    n = _positive_int(n, "budget.rollout")
    effective = {"updates_per_experience": updates, "rollout": {kind: n}}
    return effective, TrainingBudget(updates, conditions[kind](n))


@dataclass(frozen=True)
class Experiment:
    """A checked config: its default-expanded ("effective") form and what it builds."""

    effective: dict
    scenario: RLScenario
    budget: TrainingBudget
    plugins: list
    make_strategy: Callable

    def build_strategy(self, metrics: MetricsCollector | None):
        """The strategy, with its network sized by the first experience's env."""
        probe = self.scenario.train_stream[0].env_factory()
        obs_dim = probe.observation_space.shape[0]
        return self.make_strategy(obs_dim, probe.action_space.n, self.budget, metrics)


def walk_config(raw: dict) -> Experiment:
    """Checks the parsed YAML, each key once, and builds what it declares."""
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a top-level mapping")
    _check_keys(
        raw,
        "config",
        required=("scenario", "strategy", "budget", "seeds", "output_dir"),
        optional=("plugins", "eval"),
    )
    keys = ("env", "net", "sampling")
    seeds = _fields(raw["seeds"], "seeds", dict.fromkeys(keys, (_seed, None)), required=keys)
    eval_eff = _fields(
        raw.get("eval", {}),
        "eval",
        {"episodes": (_positive_int, 10), "after_each_experience": (_bool, True)},
    )
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ConfigError("output_dir: expected a non-empty string")
    scenario_eff, scenario = _walk_scenario(raw["scenario"])
    strategy_eff, make_strategy = _walk_strategy(raw["strategy"], seeds)
    plugins_eff, plugins = _walk_plugins(raw.get("plugins"), seeds)
    budget_eff, budget = _walk_budget(raw["budget"])
    effective = {
        "scenario": scenario_eff,
        "strategy": strategy_eff,
        "plugins": plugins_eff,
        "budget": budget_eff,
        "seeds": seeds,
        "eval": eval_eff,
        "output_dir": raw["output_dir"],
    }
    return Experiment(effective, scenario, budget, plugins, make_strategy)


def load_config(path) -> Experiment:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ConfigError(f"config: YAML parse error: {err}")
    return walk_config(raw)


def _resolve_output_dir(config: dict) -> Path:
    out = os.environ.get("STREAMRL_OUTPUT_DIR") or config["output_dir"]
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_run(config_path: str) -> int:
    experiment = load_config(config_path)
    out_dir = _resolve_output_dir(experiment.effective)
    effective = dict(experiment.effective)
    effective["output_dir"] = str(out_dir)
    (out_dir / "config_effective.yaml").write_text(
        yaml.safe_dump(effective, sort_keys=True)
    )

    collector = MetricsCollector(window=10, loggers=[JsonlLogger(out_dir / "metrics.jsonl")])
    try:
        scenario = experiment.scenario
        strategy = experiment.build_strategy(collector)
        plugins = experiment.plugins
        peval = effective["eval"]["after_each_experience"]
        episodes = effective["eval"]["episodes"]
        report = strategy.train(
            scenario,
            plugins,
            eval_stream=scenario.eval_stream if peval else None,
            eval_episodes=episodes,
        )
        if peval:
            eval_rows = report.evals
        else:
            eval_rows = (tuple(strategy.evaluate(scenario.eval_stream, episodes)),)
        matrix = ForgettingMatrix(len(scenario.eval_stream))
        for row in eval_rows:
            matrix.add_row([result.mean_return for result in row])
        matrix.write_csv(out_dir / "forgetting.csv")

        sections = {}
        for plugin in plugins:
            if hasattr(plugin, "state_sections"):
                sections.update(plugin.state_sections())
        save_model(out_dir / "checkpoint.bin", strategy.model, sections)
    finally:
        collector.close()

    for exp_report in report.experiences:
        print(
            f"experience {exp_report.experience_index} (task {exp_report.task_label}): "
            f"{exp_report.env_steps} env steps, {exp_report.updates_applied} updates, "
            f"{exp_report.episodes_completed} episodes"
        )
    final = eval_rows[-1]
    for result in final:
        print(
            f"eval task {result.task_label}: return {result.mean_return:.4f} "
            f"± {result.std_return:.4f}"
        )
    print(f"artifacts written to {out_dir}")
    return 0


def cmd_eval(config_path: str, checkpoint_path: str) -> int:
    experiment = load_config(config_path)
    out_dir = _resolve_output_dir(experiment.effective)
    collector = MetricsCollector(
        window=10, loggers=[JsonlLogger(out_dir / "eval_metrics.jsonl")]
    )
    try:
        strategy = experiment.build_strategy(collector)
        restore_into(strategy.model, checkpoint_path)
        results = strategy.evaluate(
            experiment.scenario.eval_stream, experiment.effective["eval"]["episodes"]
        )
    finally:
        collector.close()
    for result in results:
        print(
            f"task {result.task_label}: return {result.mean_return:.4f} "
            f"± {result.std_return:.4f} (mean length {result.mean_length:.1f})"
        )
    return 0


def cmd_plot_data(metrics_path: str, metric_name: str, phase: str | None) -> int:
    records = read_metrics_jsonl(metrics_path)
    names = sorted({record.metric_name for record in records})
    if metric_name not in names:
        print(
            f"unknown metric {metric_name!r}; available: {', '.join(names)}",
            file=sys.stderr,
        )
        return 2
    rows = [
        (record.global_step, record.value)
        for record in records
        if record.metric_name == metric_name and (phase is None or record.phase == phase)
    ]
    rows.sort(key=lambda pair: pair[0])
    print("step,value")
    for step, value in rows:
        print(f"{step},{value!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamrl", description="Config-driven continual RL experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="train from a config file")
    run_p.add_argument("config")
    eval_p = sub.add_parser("eval", help="evaluate a checkpoint")
    eval_p.add_argument("config")
    eval_p.add_argument("checkpoint")
    plot_p = sub.add_parser("plot-data", help="metric time series as CSV on stdout")
    plot_p.add_argument("metrics")
    plot_p.add_argument("metric_name")
    plot_p.add_argument("--phase", default=None, help="keep only records from this phase")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "eval":
            return cmd_eval(args.config, args.checkpoint)
        return cmd_plot_data(args.metrics, args.metric_name, args.phase)
    except (ConfigError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # runtime failure
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
