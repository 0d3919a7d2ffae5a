"""The config schema: the kind tables' error messages, the schema defaults
against the library's, and the README's config reference."""

import inspect
import re
from pathlib import Path

import pytest
import yaml

from streamrl import cli
from streamrl.cli import main
from streamrl.nn import Adam, Mlp
from streamrl.plugins import EwcPlugin, NaivePlugin, ReplayPlugin
from streamrl.training import A2cStrategy, DqnStrategy, RLBaseStrategy, Steps, TrainingBudget
from test_cli import at, base_config, task_stream, wrap, write_config

README = Path(__file__).resolve().parents[1] / "README.md"


# (edit of base_config, key path, noun, every kind of the table in table order)
KIND_TABLES = {
    "generator": (at("scenario.generator", "bogus"), "scenario.generator", "generator",
                  ["gym_benchmark", "continual_control", "task_stream"]),
    "env": (at("scenario.env_specs.0.env", "bogus"), "scenario.env_specs[0].env", "env",
            ["gridworld", "cartpole", "bandit"]),
    "strategy": (at("strategy.name", "bogus"), "strategy.name", "strategy",
                 ["dqn", "double_dqn", "a2c"]),
    "plugin": (at("plugins", [{"name": "bogus"}]), "plugins[0].name", "plugin",
               ["naive", "ewc", "replay"]),
    "wrapper": (wrap({"bogus": 1}), "scenario.env_specs[0].wrappers[0]", "kind",
                ["time_limit", "frame_stack", "reward_clip", "obs_normalize", "action_remap",
                 "reduced_actions"]),
    "order": (at("scenario.order", {"bogus": 1}), "scenario.order", "kind",
              ["explicit", "random_seed"]),
    "swap": (task_stream(swap={"bogus": 1}), "scenario.swap", "kind",
             ["on_task_change", "every_n_episodes", "every_n_steps"]),
    "rollout": (at("budget.rollout", {"bogus": 1}), "budget.rollout", "kind", ["steps", "episodes"]),
    "duration": (task_stream(tasks=[{"type": "survive", "duration": {"bogus": 1}}]),
                 "scenario.tasks[0].duration", "kind", ["episodes", "steps"]),
}


@pytest.mark.parametrize("table", list(KIND_TABLES))
def test_an_unknown_kind_exits_2_naming_every_kind_of_its_table(table, tmp_path, capsys):
    edit, path, noun, kinds = KIND_TABLES[table]
    config = base_config(tmp_path / "out")
    edit(config)
    assert main(["run", str(write_config(tmp_path, config))]) == 2
    message = f"{path}: unknown {noun} 'bogus' (choose from {', '.join(kinds)})"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, keys, message", [
    ("", {5: 1, "surprise": 1}, "config: unknown key(s) [5, 'surprise']"),
    ("strategy", {"x": 1, True: 1}, "strategy: unknown key(s) [True, 'x']"),
])
def test_unknown_keys_of_several_types_exit_2(tmp_path, capsys, path, keys, message):
    """YAML keys need not be strings; sorting an int with a str once raised
    TypeError (exit 3)."""
    config = base_config(tmp_path / "out")
    (config[path] if path else config).update(keys)
    assert main(["run", str(write_config(tmp_path, config))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def constructor_defaults(*classes) -> dict:
    """{parameter: default} of the classes' constructors; the first class
    that names a parameter gives its default."""
    defaults = {}
    for cls in reversed(classes):
        defaults.update((name, parameter.default)
                        for name, parameter in inspect.signature(cls).parameters.items()
                        if parameter.default is not inspect.Parameter.empty)
    return defaults


# each strategy and plugin kind's section, and the classes whose constructors
# it fills: the first class that names a parameter gives its default
SCHEMA_SECTIONS = {**cli._STRATEGIES, **cli._PLUGIN_LIST.entry.table}
CONSTRUCTORS = {
    "dqn": (DqnStrategy, RLBaseStrategy),
    "double_dqn": (DqnStrategy, RLBaseStrategy),
    "a2c": (A2cStrategy, RLBaseStrategy),
    "naive": (NaivePlugin,),
    "ewc": (EwcPlugin,),
    "replay": (ReplayPlugin,),
}


@pytest.mark.parametrize("kind", list(SCHEMA_SECTIONS))
def test_schema_defaults_are_the_constructor_defaults(kind):
    """A strategy or plugin built from a config and one built in code get the
    same value for every key the config leaves out."""
    classes = CONSTRUCTORS[kind]
    library = constructor_defaults(*classes)
    schema = {key: default for key, (_, default) in SCHEMA_SECTIONS[kind].fields.items()}
    shared = sorted(set(schema) & set(library))
    assert {key: (schema[key], type(schema[key])) for key in shared} == {
        key: (library[key], type(library[key])) for key in shared}
    # the kind, and the network's keys, which the strategy gets built
    unshared = {"name", "lr", "hidden"} if RLBaseStrategy in classes else {"name"}
    assert set(schema) - set(library) == unshared


PROBES = [0, -1, 2.5, True, "3", float("nan"), float("inf")]


def fed_constructor(kind: str, key: str):
    """The call that a key of a strategy or plugin section feeds: `lr` makes
    the Adam, a `hidden` entry the Mlp, and any other key goes by name to the
    kind's constructor. None for a key that feeds none of them."""
    classes = CONSTRUCTORS[kind]
    if key == "lr":
        return Adam
    if key == "hidden":
        return lambda width: Mlp([4, width, 2])
    if key not in constructor_defaults(*classes):
        return None
    if RLBaseStrategy not in classes:
        return lambda value: classes[0](**{key: value})
    heads = {"q_values": 2} if classes[0] is DqnStrategy else {"policy_logits": 2, "value": 1}
    return lambda value: classes[0](Mlp([4, sum(heads.values())], heads=heads), Adam(1e-3),
                                    TrainingBudget(1, Steps(1)), **{key: value})


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, section in SCHEMA_SECTIONS.items()
                                       for key in section.fields if key != "name"])
def test_schema_refusals_are_the_constructor_refusals(kind, key):
    """A strategy or plugin built in code refuses every value that the config
    walk refuses for the key feeding that argument, with a ValueError."""
    construct = fed_constructor(kind, key)
    assert construct is not None, f"{kind}.{key} feeds no known constructor; map it"
    check = SCHEMA_SECTIONS[kind].fields[key][0]
    accepted = []
    for value in PROBES:
        try:
            check([value] if key == "hidden" else value, f"{kind}.{key}")
        except cli.ConfigError:
            try:
                construct(value)
            except ValueError:
                continue
            accepted.append(value)
    assert accepted == [], f"the config walk refuses {kind}.{key} = {accepted}; the constructor does not"


def schema_names() -> set:
    """Every key of every section table of the config schema, and every kind
    of every kind table, from the top level and every schema object of cli."""
    names, seen = set(), set()

    def visit(check):
        if id(check) in seen:
            return
        seen.add(id(check))
        if isinstance(check, cli._Section):
            names.update(check.fields)
            inner = [entry for entry, _ in check.fields.values()]
        elif isinstance(check, (cli._Kinded, cli._Choice)):
            names.update(check.table)
            inner = [entry if isinstance(check, cli._Kinded) else entry[0]
                     for entry in check.table.values()]
        elif isinstance(check, cli._ListOf):
            inner = [check.entry]
        else:
            inner = []
        for entry in inner:
            visit(entry)

    visit(cli._Section(cli._CONFIG))
    for value in vars(cli).values():
        visit(value)
    return names


def test_the_readme_config_reference_names_every_key_and_kind():
    names = schema_names()
    assert {"target_sync_period", "base_params", "after_each_experience", "random_seed"} <= names
    reference = README.read_text().split("### Config reference\n")[1].split("\n## ")[0]
    in_code = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", reference))))
    assert sorted(names - in_code) == []
