"""Rollout/update training skeleton shared by all strategies.

A strategy owns a model, an optimizer and a TrainingBudget. train() walks the
scenario's train stream; for every experience it runs

    { collect rollout ; prepare batch ; update } x updates_per_experience

firing plugin hooks around each stage:

    before_training
      (before_training_exp
         (before_rollout, after_rollout, before_update, after_update) x U
       after_training_exp) x E
    after_training

plus before_eval_exp/after_eval_exp around each evaluation experience.
Plugins see the live strategy object: between before_update and after_update
they may add penalties to `strategy.loss` and analytic gradient contributions
to `strategy.grad_accum`, both of which the concrete strategy folds into its
optimizer step. `strategy.update_batch` is already prepared when
before_update fires so plugins can rewrite it in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count
from typing import Optional, Sequence

import numpy as np

from .. import checks
from ..benchmarks import RLExperience, RLScenario
from ..core_env import ActionOutOfSpace, lane_stepper
from ..core_env import deserialize_obs  # noqa: F401  traced by name; see ROADMAP item 1
from ..evaluation import MetricsCollector
from ..nn import NonFinite, _all_finite
from ..vec_env import EPISODE_SEED_STRIDE, VectorizedEnv

# Eval episodes that run side by side, one greedy forward over all of them per
# step. CPU time is the cost that counts, and numpy's OpenBLAS (0.3.31) runs a
# 64x64 layer's GEMM on 2 threads from batch 128 up: on a 2-vCPU host, a
# [4, 64, 64, 3] forward measured CPU/wall 2.0 at batches 128 and 200 and at
# most 1.0 at 64 and below (45 us of CPU at batch 32, 182 us at 128). 32 stays
# well under that threshold.
EVAL_LANES = 32


class EmptyStream(ValueError):
    """train() was given a scenario with no training experiences."""


class EmptyRollout(ValueError):
    """An update was asked to consume a rollout with no steps."""


class InvalidEpisodeCount(ValueError):
    """evaluate() needs at least one episode per experience."""


class AppendAfterMaterialize(RuntimeError):
    """Rollout views were taken; the rollout is frozen."""


class InsufficientReplay(RuntimeError):
    """Not enough stored transitions to draw a mini-batch."""


@dataclass(eq=False)
class Transitions:
    """Transitions as columns, one row each. next_obs is the true successor
    state: when the vectorized env auto-reset, this is the terminal
    observation rather than the first observation of the following episode.
    Indexing with an int, or iterating, gives single transitions (fields are
    that row's entries); a slice or index array gives rows as Transitions."""

    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    done: np.ndarray
    next_obs: np.ndarray
    task_label: np.ndarray

    def __post_init__(self) -> None:
        if not _all_finite(self.reward):
            raise ValueError(f"non-finite reward {self.reward!r}")
        if np.shape(self.obs) != np.shape(self.next_obs):
            raise ValueError(
                f"obs shape {np.shape(self.obs)} != next_obs shape {np.shape(self.next_obs)}"
            )

    @staticmethod
    def zeros(shape: tuple, obs_shape: tuple) -> "Transitions":
        """Zero-filled columns whose leading dimensions are `shape`."""
        return Transitions(
            obs=np.zeros((*shape, *obs_shape)),
            action=np.zeros(shape, dtype=np.int64),
            reward=np.zeros(shape),
            done=np.zeros(shape, dtype=bool),
            next_obs=np.zeros((*shape, *obs_shape)),
            task_label=np.zeros(shape, dtype=np.int64),
        )

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.obs, self.action, self.reward, self.done, self.next_obs, self.task_label)

    def __len__(self) -> int:
        return len(self.action)

    def __getitem__(self, index) -> "Transitions":
        rows = object.__new__(Transitions)  # rows of checked columns need no check
        rows.obs, rows.action, rows.reward, rows.done, rows.next_obs, rows.task_label = (
            column[index] for column in self.columns
        )
        return rows

    def put(self, rows, source: "Transitions") -> None:
        """Overwrites `rows` with the rows of source, column by column."""
        for column, values in zip(self.columns, source.columns):
            column[rows] = values


class Rollout:
    """The transitions of n_actors lockstep actors, appended one vectorized
    step (a row per actor) at a time and joined, and checked, into time-major
    columns when first viewed. Viewing freezes the rollout: further appends
    raise AppendAfterMaterialize.
    """

    def __init__(self, n_actors: int, task_label: int = 0):
        self.n_actors = checks.count(n_actors, "n_actors")
        self.task_label = task_label
        self._rows: list[tuple] = []
        self._steps: Optional[Transitions] = None

    def append(self, obs, action, reward, done, next_obs) -> None:
        """One vectorized step; each argument holds one row per actor."""
        if self._steps is not None:
            raise AppendAfterMaterialize("batch views already materialized")
        self._rows.append((obs, action, reward, done, next_obs))

    def __len__(self) -> int:
        return len(self._rows) * self.n_actors

    def steps(self) -> Transitions:
        """Time-major rows: all actors at t=0, then t=1, ..."""
        if self._steps is None:
            if not self._rows:
                raise EmptyRollout("cannot materialize an empty rollout")
            columns = [np.concatenate(column) for column in zip(*self._rows)]
            self._steps = Transitions(*columns, np.full(len(self), self.task_label))
        return self._steps


class Steps(checks.Count):
    """Roll for n vectorized env steps (n transitions per actor)."""


class Episodes(checks.Count):
    """Roll until n episodes have completed, summed across actors."""


@dataclass(frozen=True)
class TrainingBudget:
    updates_per_experience: int
    rollout_condition: Steps | Episodes

    def __post_init__(self) -> None:
        checks.count(self.updates_per_experience, "updates_per_experience")
        condition = self.rollout_condition
        if not isinstance(condition, (Steps, Episodes)):
            raise TypeError(f"rollout_condition must be Steps or Episodes, got {condition!r}")


class StrategyPlugin:
    """No-op callbacks; subclasses override the hooks they care about.

    Every hook receives the strategy so plugins can read/mutate its public
    state (model, optimizer, rollout, update_batch, loss, grad_accum,
    experience, ...). Plugins run in registration order.
    """

    def before_training(self, strategy) -> None:
        pass

    def before_training_exp(self, strategy) -> None:
        pass

    def before_rollout(self, strategy) -> None:
        pass

    def after_rollout(self, strategy) -> None:
        pass

    def before_update(self, strategy) -> None:
        pass

    def after_update(self, strategy) -> None:
        pass

    def after_training_exp(self, strategy) -> None:
        pass

    def after_training(self, strategy) -> None:
        pass

    def before_eval_exp(self, strategy) -> None:
        pass

    def after_eval_exp(self, strategy) -> None:
        pass


HOOKS = tuple(name for name in vars(StrategyPlugin) if not name.startswith("_"))


@dataclass(frozen=True)
class EvalResult:
    experience_index: int
    task_label: int
    mean_return: float
    std_return: float
    mean_length: float


@dataclass(frozen=True)
class ExperienceReport:
    experience_index: int
    task_label: int
    env_steps: int
    updates_applied: int
    updates_skipped: int
    episodes_completed: int
    episode_returns: tuple[float, ...]
    final_loss: float


@dataclass(frozen=True)
class TrainingReport:
    experiences: tuple[ExperienceReport, ...]
    evals: tuple[tuple[EvalResult, ...], ...]
    total_env_steps: int
    total_updates: int


class RLBaseStrategy:
    """Shared engine. Subclasses implement action sampling and the update."""

    def __init__(
        self,
        model,
        optimizer,
        budget: TrainingBudget,
        gamma: float = 0.99,
        env_seed: int = 0,
        eval_env_seed: int = 10_000,
        metrics: Optional[MetricsCollector] = None,
        vec_mode: str = "serial",
    ):
        if not 0.0 <= checks.finite(gamma, "gamma") <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {gamma!r}")
        self.model = model
        self.optimizer = optimizer
        self.budget = budget
        self.gamma = float(gamma)
        self.env_seed = checks.integer(env_seed, "env_seed", low=0)
        self.eval_env_seed = checks.integer(eval_env_seed, "eval_env_seed", low=0)
        self.metrics = MetricsCollector() if metrics is None else metrics
        self.vec_mode = vec_mode
        self.plugins: list[StrategyPlugin] = []
        # state visible to plugins
        self.experience: Optional[RLExperience] = None
        self.eval_experience: Optional[RLExperience] = None
        self.venv: Optional[VectorizedEnv] = None
        self.current_obs: Optional[np.ndarray] = None
        self.rollout: Optional[Rollout] = None
        self.update_batch = None
        self.loss = 0.0
        self.grad_accum: Optional[np.ndarray] = None
        self.training = False
        self.update_index = 0
        self.global_update_index = 0
        self.env_steps_this_exp = 0
        self.total_env_steps = 0
        self.updates_applied_this_exp = 0
        self.updates_skipped_this_exp = 0
        self._ep_return: list[float] = []  # per actor, of the running episode
        self._ep_length: list[int] = []
        self._exp_episode_returns: list[float] = []

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------

    def sample_rollout_action(self, obs_batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def greedy_action(self, obs_batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prepare_update_batch(self, rollout: Rollout):
        """Builds the batch the next update will consume (plugins may then
        rewrite it in their before_update hook)."""
        raise NotImplementedError

    def apply_update(self, batch) -> None:
        raise NotImplementedError

    def per_sample_loss_grad(self, step: Transitions) -> np.ndarray:
        """Log-likelihood gradients of one transition (an int-indexed row of
        Transitions) at the current params, one flat row per model output,
        shape (k, param_count). The sum of their squares is this transition's
        contribution to the diagonal Fisher. EwcPlugin does not call it:
        fisher_sum gets that sum for FISHER_CHUNK (64) transitions at a time
        from one batched pass, by the identity sum_i (delta_i x_i^T)^2 =
        (delta^2)^T (x^2). This one-row form is the reference it is tested
        against."""
        raise NotImplementedError

    def fisher_sum(self, steps: Transitions) -> np.ndarray:
        """The sum over `steps` of their squared per_sample_loss_grad rows,
        shape (param_count,): one forward pass over the batch, then k
        Mlp.squared_grad_sum passes. Regularization plugins (EwcPlugin)
        average it over an experience."""
        raise NotImplementedError

    def on_experience_start(self, experience: RLExperience) -> None:
        pass

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------

    def _fire(self, hook: str) -> None:
        for plugin in self.plugins:
            getattr(plugin, hook)(self)

    def collect_rollout(self, venv: VectorizedEnv, condition: Steps | Episodes) -> Rollout:
        """Gathers transitions until the condition is met. The observation
        carried in self.current_obs persists across calls, so consecutive
        rollouts within an experience are seamless."""
        rollout = Rollout(venv.n_actors, self.experience.task_label)
        vec_steps = 0
        episodes_finished = 0
        while True:
            actions = self.sample_rollout_action(self.current_obs)
            obs, rewards, dones, final_obs = venv.step(actions)
            reward_list = rewards.tolist()
            if not all(map(math.isfinite, reward_list)):  # before any return or metric
                where = f"experience {self.experience.experience_index}, update {self.update_index}"
                raise ValueError(f"{where}, rollout: non-finite reward in {reward_list!r}")
            rollout.append(self.current_obs, actions, rewards, dones, final_obs)
            # Python floats: the same IEEE float64 adds as a numpy accumulator
            self._ep_return = [ret + r for ret, r in zip(self._ep_return, reward_list)]
            self._ep_length = [length + 1 for length in self._ep_length]
            for a in compress(count(), dones.tolist()):  # the actors that are done
                episode_return, length = self._ep_return[a], self._ep_length[a]
                episodes_finished += 1
                self._exp_episode_returns.append(episode_return)
                self.metrics.record_episode(episode_return, length)
                self._ep_return[a] = 0.0
                self._ep_length[a] = 0
            self.current_obs = obs
            vec_steps += 1
            self.env_steps_this_exp += venv.n_actors
            self.total_env_steps += venv.n_actors
            self.metrics.global_step = self.total_env_steps
            if (vec_steps if isinstance(condition, Steps) else episodes_finished) >= condition.n:
                return rollout

    def train(
        self,
        scenario: RLScenario,
        plugins: Optional[Sequence[StrategyPlugin]] = None,
        eval_stream: Optional[Sequence[RLExperience]] = None,
        eval_episodes: int = 10,
    ) -> TrainingReport:
        if plugins is not None:
            self.plugins = list(plugins)
        if scenario.n_experiences == 0:
            raise EmptyStream("scenario has no training experiences")
        self.training = True
        self._fire("before_training")
        reports: list[ExperienceReport] = []
        evals: list[tuple[EvalResult, ...]] = []
        for exp in scenario.train_stream:
            self.experience = exp
            self.metrics.phase = "train"
            self.metrics.experience_index = exp.experience_index
            self.metrics.reset_phase_windows("train")
            venv = VectorizedEnv(
                exp.env_factory, exp.n_envs, base_seed=self.env_seed, mode=self.vec_mode
            )
            self.venv = venv
            phase = "rollout"
            try:
                self.current_obs = venv.reset()
                self._ep_return = [0.0] * exp.n_envs
                self._ep_length = [0] * exp.n_envs
                self._exp_episode_returns = []
                self.env_steps_this_exp = 0
                self.updates_applied_this_exp = 0
                self.updates_skipped_this_exp = 0
                self.on_experience_start(exp)
                self._fire("before_training_exp")
                for u in range(self.budget.updates_per_experience):
                    self.update_index = u
                    phase = "rollout"
                    self._fire("before_rollout")
                    self.rollout = self.collect_rollout(venv, self.budget.rollout_condition)
                    self._fire("after_rollout")
                    phase = "update"
                    self.loss = 0.0
                    self.grad_accum = np.zeros(self.model.param_count)
                    self.update_batch = self.prepare_update_batch(self.rollout)
                    self._fire("before_update")
                    self.apply_update(self.update_batch)
                    self._fire("after_update")
                    self.global_update_index += 1
                phase = "fisher"  # where regularization plugins measure importance
                self._fire("after_training_exp")
            except NonFinite as err:
                where = f"experience {exp.experience_index}, update {self.update_index}, {phase}"
                raise NonFinite(f"{where}: {err}") from err
            finally:
                venv.close()
                self.venv = None
            reports.append(
                ExperienceReport(
                    experience_index=exp.experience_index,
                    task_label=exp.task_label,
                    env_steps=self.env_steps_this_exp,
                    updates_applied=self.updates_applied_this_exp,
                    updates_skipped=self.updates_skipped_this_exp,
                    episodes_completed=len(self._exp_episode_returns),
                    episode_returns=tuple(self._exp_episode_returns),
                    final_loss=float(self.loss),
                )
            )
            if eval_stream is not None:
                evals.append(tuple(self.evaluate(eval_stream, eval_episodes)))
        self.training = False
        self._fire("after_training")
        return TrainingReport(
            experiences=tuple(reports),
            evals=tuple(evals),
            total_env_steps=self.total_env_steps,
            total_updates=self.global_update_index,
        )

    def evaluate(
        self, eval_stream: Sequence[RLExperience], n_episodes: int
    ) -> list[EvalResult]:
        """Greedy policy, no learning: n_episodes per eval experience, episode
        k on a fresh env reset with eval_env_seed + EPISODE_SEED_STRIDE * k, so
        each episode depends only on the weights and its seed. Up to EVAL_LANES
        episodes run side by side with one greedy_action call per step; a
        factory that returns one env twice plays them one at a time. Records
        and results come in episode order."""
        checks.count(n_episodes, "n_episodes", InvalidEpisodeCount)
        saved = (self.metrics.phase, self.metrics.experience_index)
        results: list[EvalResult] = []
        for exp in eval_stream:
            self.eval_experience = exp
            self._fire("before_eval_exp")
            self.metrics.phase = "eval"
            self.metrics.experience_index = exp.experience_index
            self.metrics.reset_phase_windows("eval")
            returns, lengths = self._play_greedy(exp, n_episodes)
            for episode_return, length in zip(returns, lengths):
                self.metrics.record_episode(episode_return, length)
            result = EvalResult(
                experience_index=exp.experience_index,
                task_label=exp.task_label,
                mean_return=float(np.mean(returns)),
                std_return=float(np.std(returns)),
                mean_length=float(np.mean(lengths)),
            )
            results.append(result)
            self.metrics.record_custom("eval_return", result.mean_return)
            self.metrics.record_custom("eval_return_std", result.std_return)
            self.metrics.record_custom("eval_length", result.mean_length)
            self._fire("after_eval_exp")
        self.metrics.phase, self.metrics.experience_index = saved
        self.eval_experience = None
        return results

    def _play_greedy(self, exp: RLExperience, n_episodes: int) -> tuple[list[float], list[int]]:
        """Returns and lengths of n_episodes greedy episodes, by episode index.
        A lane is one running episode; a finished lane takes the next episode."""
        where = f"eval experience {exp.experience_index}"
        returns, lengths = [0.0] * n_episodes, [0] * n_episodes
        envs = [exp.env_factory() for _ in range(min(n_episodes, 2))]
        # a factory that returns one env twice (a shared TaskStreamEnv) gets one lane
        width = 1 if envs[-1] is envs[0] else min(n_episodes, EVAL_LANES)
        envs = envs[:width] + [exp.env_factory() for _ in range(width - 2)]
        space, seed = envs[0].action_space, self.eval_env_seed
        step_lanes = lane_stepper(envs)
        # lane i plays episode ks[i] on envs[i] and last saw obs[i]
        ks = list(range(width))
        obs = np.array([env.reset(seed=seed + EPISODE_SEED_STRIDE * k) for k, env in zip(ks, envs)])
        next_episode = width
        while ks:
            try:
                actions = self.greedy_action(obs).tolist()
            except NonFinite as err:
                raise NonFinite(f"{where}: {err}") from err
            if len(actions) != len(ks):
                raise ValueError(f"{where}: need {len(ks)} actions, got {len(actions)}")
            if not all(map(space.contains, actions)):  # every check before any lane steps
                k, action = next((k, a) for k, a in zip(ks, actions) if not space.contains(a))
                raise ActionOutOfSpace(f"{where}, episode {k}: action {action!r} not in {space}")
            obs, rewards, dones = step_lanes(envs, actions)
            for k, reward in zip(ks, rewards):
                reward = float(reward)
                if not math.isfinite(reward):  # before any return or metric
                    raise ValueError(f"{where}: non-finite reward {reward!r}")
                returns[k] += reward
                lengths[k] += 1
            if any(dones):  # a finished lane takes the next episode while any is left
                finished = list(compress(range(len(ks)), dones))
                left = n_episodes - next_episode
                for lane in finished[:left]:
                    ks[lane], envs[lane] = next_episode, exp.env_factory()
                    obs[lane] = envs[lane].reset(seed=seed + EPISODE_SEED_STRIDE * next_episode)
                    next_episode += 1
                live = [lane for lane in range(len(ks)) if lane not in finished[left:]]
                ks, envs, obs = [ks[i] for i in live], [envs[i] for i in live], obs[live]
                step_lanes = lane_stepper(envs) if envs else None
        return returns, lengths
