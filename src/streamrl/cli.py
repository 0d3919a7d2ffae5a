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
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import yaml

from . import checks
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
from .envs import Bandit, BanditParams, CartPole, CartPoleParams, GridScene, GridWorld, parse_scene
from .evaluation import ForgettingMatrix, JsonlLogger, MetricsCollector, read_metrics_jsonl
from .nn import Adam, Mlp
from .plugins import EwcPlugin, NaivePlugin, ReplayPlugin
from .task_stream import (
    EveryNEpisodes,
    EveryNSteps,
    MaxEpisodes,
    MaxSteps,
    OnTaskChange,
    StreamExhausted,
    build_task,
    task_stream_benchmark_generator,
)
from .training import A2cStrategy, DqnStrategy, Episodes, Steps, TrainingBudget

EVAL_SEED_OFFSET = 100_000


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending key."""


# ---------------------------------------------------------------------------
# The schema. Every section is a table {key: (check, default)}. A check takes
# (value, path), raises a ConfigError naming `path` when the value is bad, and
# returns the checked value, or _Built(its effective form, what it built).
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be present
_OPTIONAL = object()  # the default of a key that stays absent when it is absent


class _Built(NamedTuple):
    """A checked value's default-expanded ("effective") form and what it builds."""

    effective: object
    value: object


def _split(checked) -> tuple:
    return checked if isinstance(checked, _Built) else (checked, checked)


def _fields(section, path: str, fields: dict) -> tuple[dict, dict]:
    """Checks `section` against `fields` and returns its effective form and
    its built values, each {key: ...}, with the default for an absent key. The
    top level's path is ""; its own faults are reported under "config"."""
    where = path or "config"
    _mapping(section, where)
    unknown = sorted(set(section) - set(fields), key=str)  # YAML keys may be ints or bools
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    for key, (_, default) in fields.items():
        if default is _REQUIRED and key not in section:
            raise ConfigError(f"{where}.{key}: missing required key")
    effective, values = {}, {}
    for key, (check, default) in fields.items():
        if key in section or default is not _OPTIONAL:
            checked = check(section.get(key, default), f"{path}.{key}" if path else key)
            effective[key], values[key] = _split(checked)
    return effective, values


def _lookup(table: dict, kind, path: str, noun: str):
    """table[kind]; an unknown kind is reported with every kind of the table."""
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"{path}: unknown {noun} {kind!r} (choose from {', '.join(table)})")
    return table[kind]


@contextmanager
def _at(path: str, errors=(TypeError, ValueError)):
    """Reports `errors` raised by the library calls inside as ConfigErrors under `path`."""
    try:
        yield
    except errors as err:
        raise ConfigError(f"{path}: {err}")


@dataclass(frozen=True)
class _Section:
    """A mapping checked against `fields`; build(values, path), if given, makes
    what the section declares from its checked values."""

    fields: dict
    build: Callable | None = None

    def __call__(self, section, path: str):
        effective, values = _fields(section, path, self.fields)
        return effective if self.build is None else _Built(effective, self.build(values, path))


@dataclass(frozen=True)
class _Kinded:
    """A mapping whose `key` names its kind, checked as that kind's _Section in `table`."""

    key: str
    noun: str
    table: dict

    def __call__(self, section, path: str):
        _mapping(section, path)
        if self.key not in section:
            raise ConfigError(f"{path}.{self.key}: missing required key")
        return _lookup(self.table, section[self.key], f"{path}.{self.key}", self.noun)(section, path)


@dataclass(frozen=True)
class _Choice:
    """A one-key map {kind: arg}; `table` maps each kind to (check, build)."""

    table: dict

    def __call__(self, value, path: str) -> _Built:
        if not isinstance(value, dict) or len(value) != 1:
            raise ConfigError(
                f"{path}: expected a one-key map {{kind: arg}}, kind one of {list(self.table)}")
        (kind, arg), = value.items()
        check, build = _lookup(self.table, kind, path, "kind")
        effective, arg = _split(check(arg, f"{path}.{kind}"))
        return _Built({kind: effective}, build(arg))


@dataclass(frozen=True)
class _ListOf:
    """A list whose entries each pass `entry`; `non_empty` refuses an empty one."""

    entry: Callable
    non_empty: bool = True

    def __call__(self, value, path: str) -> _Built:
        if not isinstance(value, list) or (self.non_empty and not value):
            raise ConfigError(f"{path}: expected a {'non-empty ' * self.non_empty}list")
        pairs = [_split(self.entry(item, f"{path}[{i}]")) for i, item in enumerate(value)]
        return _Built([effective for effective, _ in pairs], [built for _, built in pairs])


def _any(value, path: str):
    return value


_AS_WRITTEN = (_any, _REQUIRED)  # a required key kept as written: a kind, a name, a task type


_integer = partial(checks.integer, error=ConfigError)
_positive_int = partial(checks.count, error=ConfigError)
_seed = partial(checks.integer, error=ConfigError, low=0)


def _true(value, path: str) -> bool:
    if value is not True:
        raise ConfigError(f"{path}: only 'true' is accepted")
    return value


def _bool(value, path: str) -> bool:
    if type(value) is not bool:
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string")
    return value


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping")
    return dict(value)


def _number(value, path: str) -> float:
    return float(checks.finite(value, path, ConfigError))


def _real(value, path: str) -> float:
    """A number or +-inf: a one-sided reward clip bound, or a noise_std for BanditParams to refuse."""
    return float(value) if value in (-math.inf, math.inf) else _number(value, path)


def _number_where(holds: Callable[[float], bool], requirement: str) -> Callable:
    """A number check that also requires `holds(value)`."""

    def check(value, path: str) -> float:
        number = _number(value, path)
        if not holds(number):
            raise ConfigError(f"{path} must {requirement}, got {value!r}")
        return number

    return check


_unit_interval = _number_where(lambda v: 0.0 <= v <= 1.0, "be in [0, 1]")
_positive = _number_where(lambda v: v > 0.0, "be > 0")
_non_negative = _number_where(lambda v: v >= 0.0, "be >= 0")


def _int_map(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a {{new: inner}} map of integers")
    return {_integer(k, path): _integer(v, path) for k, v in value.items()}


def _bounds(value, path: str) -> list:
    """[lo, hi] with lo <= hi; an infinite bound is a one-sided clip."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path}: expected [lo, hi]")
    bounds = [_real(bound, path) for bound in value]
    if bounds[0] > bounds[1]:
        raise ConfigError(f"{path}: expected lo <= hi, got {bounds}")
    return bounds


def _scene_text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a text map")
    with _at(path, ValueError):
        parse_scene(value)
    return value


def _scene(text: str, params: dict, path: str) -> GridScene:
    """The scene of a checked text map with field overrides, reported under `path`."""
    with _at(path):
        return parse_scene(text, **params)


def _no_map(kind: str, value, path: str):
    raise ConfigError(f"{path}: a {kind} env takes no map (only gridworld does)")


def _cartpole_params(value, path: str) -> _Built:
    """Cart-pole parameter overrides; the effective config keeps them as written."""
    params = _mapping(value, path)
    with _at(path):
        return _Built(params, CartPoleParams().override(**params))


def _bandit_params(values: dict, path: str) -> BanditParams:
    with _at(path):  # BanditParams refuses a negative or infinite noise_std
        return BanditParams(**values)


def _scene_params(value, path: str) -> dict:
    params = _mapping(value, path)
    for key in ("step_reward", "goal_reward"):
        if key in params:  # the active task pays every reward
            raise ConfigError(f"{path}: {key} is not read by the task stream; set it in tasks[i].params")
    return params


def _task(values: dict, path: str) -> tuple:
    """(Task, duration) of one task entry."""
    with _at(path):
        task = build_task(values["type"], values.get("name", ""), **values.get("params", {}))
    return task, values["duration"]


# The one-key choices of the config, each {kind: (check, build)}.
_WRAPPERS = {
    "time_limit": (_positive_int, TimeLimit),
    "frame_stack": (_positive_int, FrameStack),
    "reward_clip": (_bounds, lambda bounds: RewardClip(*bounds)),
    "obs_normalize": (_true, lambda _: ObservationNormalize()),
    "action_remap": (_int_map, ActionRemap.from_dict),
    "reduced_actions": (_ListOf(_integer), lambda subset: ReducedActionSet(tuple(subset))),
}
_ORDERS = {
    "explicit": (_ListOf(_integer), lambda indices: Explicit(tuple(indices))),
    "random_seed": (_seed, RandomSample),
}
_SWAPS = {
    "on_task_change": (_true, lambda _: OnTaskChange()),
    "every_n_episodes": (_positive_int, EveryNEpisodes),
    "every_n_steps": (_positive_int, EveryNSteps),
}
_ROLLOUTS = {"steps": (_positive_int, Steps), "episodes": (_positive_int, Episodes)}
_DURATIONS = {"episodes": (_positive_int, MaxEpisodes), "steps": (_positive_int, MaxSteps)}


def _env(map_field: tuple, params_check: Callable, factory: Callable) -> _Section:
    """An env_specs entry of one kind; factory(values, path) makes its env factory."""
    fields = {
        "name": _AS_WRITTEN,
        "env": _AS_WRITTEN,
        "map": map_field,
        "params": (params_check, {}),
        "wrappers": (_ListOf(_Choice(_WRAPPERS), non_empty=False), []),
    }
    return _Section(fields, lambda values, path: EnvSpec(
        values["name"], factory(values, path), tuple(values["wrappers"])))


_ENVS = {
    "gridworld": _env((_scene_text, _REQUIRED), _mapping, lambda values, path: partial(
        GridWorld, _scene(values["map"], values["params"], f"{path}.params"))),
    "cartpole": _env((partial(_no_map, "cartpole"), _OPTIONAL), _cartpole_params,
                     lambda values, _: partial(CartPole, values["params"])),
    "bandit": _env(
        (partial(_no_map, "bandit"), _OPTIONAL),
        _Section({"means": (_ListOf(_number), _REQUIRED), "noise_std": (_real, 0.0)}, _bandit_params),
        lambda values, _: partial(Bandit, values["params"])),
}


def _gym_benchmark(values: dict, path: str) -> RLScenario:
    # one network serves every experience, so every spec's env (wrappers
    # included) must match the first one's observation shape and actions
    envs = []
    for i, spec in enumerate(values["env_specs"]):
        with _at(f"{path}.env_specs[{i}].wrappers", EnvError):  # a wrapper that misfits its env
            envs.append(spec.build())
    first = (envs[0].observation_space.shape, envs[0].action_space)
    for i, env in enumerate(envs[1:], 1):
        if (env.observation_space.shape, env.action_space) != first:
            raise ConfigError(
                f"{path}.env_specs[{i}]: observation shape {env.observation_space.shape} and "
                f"{env.action_space} differ from env_specs[0]'s {first[0]} and {first[1]}"
            )
    with _at(f"{path}.order", ValueError):
        return gym_benchmark_generator(
            values["env_specs"], values["n_experiences"], values["order"], values["n_parallel_envs"])


def _continual_control(values: dict, path: str) -> RLScenario:
    with _at(f"{path}: bad cart-pole parameters"):
        return continual_control_generator(
            CartPoleParams().override(**values["base_params"]),
            values["schedule"],
            n_parallel_envs=values["n_parallel_envs"],
        )


def _task_stream(values: dict, path: str) -> RLScenario:
    tasks, durations = zip(*values["tasks"])
    scenes = [_scene(text, values["scene_params"], f"{path}.scene_params") for text in values["scenes"]]
    # ValueError is caught innermost: a ConfigError is one, and must not be rewrapped
    with _at(f"{path}.n_experiences", StreamExhausted), _at(path, ValueError):
        return task_stream_benchmark_generator(
            tasks, durations, scenes, swap_policy=values["swap"],
            n_experiences=values.get("n_experiences"),
        )


_PARALLEL = {"n_parallel_envs": (_positive_int, 1)}
_GENERATORS = {
    "gym_benchmark": _Section({
        "generator": _AS_WRITTEN,
        "order": (_Choice(_ORDERS), _REQUIRED),
        "env_specs": (_ListOf(_Kinded("env", "env", _ENVS)), _REQUIRED),
        "n_experiences": (_positive_int, _REQUIRED),
        **_PARALLEL,
    }, _gym_benchmark),
    "continual_control": _Section({
        "generator": _AS_WRITTEN,
        "schedule": (_ListOf(_mapping), _REQUIRED),
        "base_params": (_mapping, {}),
        **_PARALLEL,
    }, _continual_control),
    "task_stream": _Section({
        "generator": _AS_WRITTEN,
        "tasks": (_ListOf(_Section({
            "type": _AS_WRITTEN,
            "duration": (_Choice(_DURATIONS), _REQUIRED),
            "name": (_any, _OPTIONAL),
            "params": (_mapping, _OPTIONAL),
        }, _task)), _REQUIRED),
        "scenes": (_ListOf(_scene_text), _REQUIRED),
        "swap": (_Choice(_SWAPS), {"on_task_change": True}),
        "scene_params": (_scene_params, {}),
        "n_experiences": (_positive_int, _OPTIONAL),
    }, _task_stream),
}


def _strategy(cls, heads: dict, hyper: dict, seeded: Callable) -> _Section:
    """A strategy kind. gamma and the `hyper` fields go to `cls` by name, with
    seeded(seeds); `heads` maps each network output to its width, None for one
    per action. Builds make(seeds, obs_dim, n_actions, budget, metrics)."""

    def make(values, seeds, obs_dim: int, n_actions: int, budget: TrainingBudget, metrics):
        widths = {head: width or n_actions for head, width in heads.items()}
        return cls(
            Mlp([obs_dim, *values["hidden"], sum(widths.values())], heads=widths, seed=seeds["net"]),
            Adam(values["lr"]),
            budget,
            env_seed=seeds["env"],
            eval_env_seed=seeds["env"] + EVAL_SEED_OFFSET,
            metrics=metrics,
            action_seed=seeds["sampling"],
            **{key: values[key] for key in ("gamma", *hyper)},
            **seeded(seeds),
        )

    fields = {
        "name": _AS_WRITTEN,
        "gamma": (_unit_interval, 0.99),
        "lr": (_positive, 0.001),
        "hidden": (_ListOf(_positive_int, non_empty=False), [64, 64]),
        **hyper,
    }
    return _Section(fields, lambda values, path: partial(make, values))


_DQN = {
    "batch_size": (_positive_int, 32),
    "replay_capacity": (_positive_int, 10_000),
    "target_sync_period": (_positive_int, 100),
    "eps_start": (_number, 1.0),
    "eps_end": (_number, 0.05),
    "eps_decay_fraction": (_number, 0.1),
}
_STRATEGIES = {
    "dqn": _strategy(DqnStrategy, {"q_values": None}, _DQN,
                     lambda seeds: {"double": False, "replay_seed": seeds["sampling"] + 1}),
    "double_dqn": _strategy(DqnStrategy, {"q_values": None}, _DQN,
                            lambda seeds: {"double": True, "replay_seed": seeds["sampling"] + 1}),
    "a2c": _strategy(A2cStrategy, {"policy_logits": None, "value": 1},
                     {"value_coef": (_number, 0.5), "entropy_coef": (_number, 0.01)}, lambda seeds: {}),
}


def _plugin(cls, fields: dict, seeded: Callable = lambda seeds: {}) -> _Section:
    """A plugin kind whose `fields` go to `cls` by name, with seeded(seeds). Builds make(seeds)."""
    return _Section({"name": _AS_WRITTEN, **fields}, lambda values, path: lambda seeds: cls(
        **{key: values[key] for key in fields}, **seeded(seeds)))


_PLUGIN_LIST = _ListOf(_Kinded("name", "plugin", {
    "naive": _plugin(NaivePlugin, {}),
    "ewc": _plugin(EwcPlugin, {"lam": (_non_negative, 100.0),
                               "fisher_sample_count": (_positive_int, 512)}),
    "replay": _plugin(ReplayPlugin, {"capacity": (_positive_int, 10_000),
                                     "mix_ratio": (_unit_interval, 0.5)},
                      lambda seeds: {"seed": seeds["sampling"] + 2}),
}), non_empty=False)


_CONFIG = {
    "seeds": (_Section(dict.fromkeys(("env", "net", "sampling"), (_seed, _REQUIRED))), _REQUIRED),
    "eval": (_Section({"episodes": (_positive_int, 10), "after_each_experience": (_bool, True)}), {}),
    "output_dir": (_text, _REQUIRED),
    "scenario": (_Kinded("generator", "generator", _GENERATORS), _REQUIRED),
    "strategy": (_Kinded("name", "strategy", _STRATEGIES), _REQUIRED),
    # `plugins:` with no entries reads as null
    "plugins": (lambda value, path: _PLUGIN_LIST([] if value is None else value, path), []),
    "budget": (_Section(
        {"updates_per_experience": (_positive_int, _REQUIRED),
         "rollout": (_Choice(_ROLLOUTS), {"steps": 5})},
        lambda values, path: TrainingBudget(values["updates_per_experience"], values["rollout"]),
    ), _REQUIRED),
}


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
    effective, built = _fields(raw, "", _CONFIG)
    seeds = built["seeds"]
    return Experiment(effective, built["scenario"], built["budget"],
                      [make(seeds) for make in built["plugins"]], partial(built["strategy"], seeds))


def load_config(path) -> Experiment:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}")
    try:
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as err:  # ValueError: an integer too long, a bad date
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
    effective = {**experiment.effective, "output_dir": str(out_dir)}
    (out_dir / "config_effective.yaml").write_text(yaml.safe_dump(effective, sort_keys=True))

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
