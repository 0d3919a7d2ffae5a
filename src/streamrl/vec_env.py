"""Batched facade over N seeded replicas of one environment.

Actor i starts from seed base_seed + i and, whenever its episode finishes,
is automatically reset with seed base_seed + i + 10**6 * episode_index, so any
episode is reproducible in isolation as long as no wrapper keeps state across
reset (obs_normalize's running statistics do). step() returns obs, rewards,
dones and final_obs, one row per actor. final_obs equals obs except on
auto-reset, where obs starts the next episode and final_obs holds the true
terminal observation.

Serial mode steps the actors in-process; parallel mode splits them into
min(N, usable CPUs) contiguous shards, one worker process and one message per
shard per call; both give bitwise-identical rows in actor order. A worker's
error or death raises ActorCrashed naming the actor. A pool of two or more
replicas (N > 1, or any worker) refuses a factory that returns one env twice.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import suppress
from itertools import compress
from typing import Callable, Literal

import numpy as np

from .checks import count
from .core_env import ActionOutOfSpace, Environment, lane_stepper
from .core_env import serialize_obs  # noqa: F401  traced by name; see ROADMAP item 1

EPISODE_SEED_STRIDE = 1_000_000


class _Actor:
    """One env replica and where it is in its seeding schedule."""

    def __init__(self, factory: Callable[[], Environment], index: int, base_seed: int):
        self.env = factory()
        self.index = index
        self.base_seed = base_seed
        self.episode_index = 0


class ActorCrashed(RuntimeError):
    """An actor's worker process raised or died; the message names the actor(s)."""


def _worker(conn, factory, shard: range, base_seed: int) -> None:
    """Serve one shard as a serial VectorizedEnv whose actor j is actor shard[j]:
    each message, None (reset) or one action per actor, gets one reply."""
    try:
        lanes = VectorizedEnv(factory, len(shard), base_seed + shard.start)
        for actions in iter(conn.recv, "close"):
            conn.send(lanes.reset() if actions is None else lanes.step(actions))
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as err:  # report to the parent, which re-raises it
        lane = getattr(err, "lane", None)
        where = f"actors {shard[0]}..{shard[-1]}" if lane is None else f"actor {shard[lane]}"
        conn.send(ActorCrashed(f"{where}: {type(err).__name__}: {err}"))
    finally:
        conn.close()


class VectorizedEnv:
    """N lockstep actors, each on its own env from env_factory; parallel mode
    shards them over min(N, usable CPUs) workers. Not safe for concurrent calls."""

    def __init__(
        self,
        env_factory: Callable[[], Environment],
        n_actors: int,
        base_seed: int = 0,
        mode: Literal["serial", "parallel"] = "serial",
    ):
        self.n_actors = count(n_actors, "n_actors")
        if mode not in ("serial", "parallel"):
            raise ValueError(f"unknown mode {mode!r}")
        self.base_seed = base_seed
        self.mode = mode
        self._conns, self._procs = [], []
        if mode == "serial":
            self.actors = [_Actor(env_factory, i, base_seed) for i in range(n_actors)]
            self._envs = [actor.env for actor in self.actors]
            self._step_lanes = lane_stepper(self._envs)
            template = self._envs[0]
            replica = self._envs[1] if n_actors > 1 else None
        else:
            template, replica = env_factory(), env_factory()
        if replica is template:  # a shared env (TaskStreamEnv) runs only as one serial actor
            raise ValueError("env_factory must build a new env for every replica")
        self.action_space = template.action_space
        self.observation_space = template.observation_space
        if mode == "parallel":
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            k = min(n_actors, cpus or 1)
            self._shards = [range(n_actors * w // k, n_actors * (w + 1) // k) for w in range(k)]
            ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
            for shard in self._shards:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker, args=(child_conn, env_factory, shard, base_seed), daemon=True
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)

    def reset(self) -> np.ndarray:
        if self.mode == "parallel":
            return np.concatenate(self._exchange(None))
        return np.stack(self._start(range(self.n_actors)))

    def _start(self, lanes, next_episode: bool = False) -> list:
        """Start each of these actors' episode 0, or their next episode; an
        error carries the `lane` of the actor it came from."""
        rows = []
        for lane in lanes:
            actor = self.actors[lane]
            actor.episode_index = actor.episode_index + 1 if next_episode else 0
            seed = actor.base_seed + actor.index + EPISODE_SEED_STRIDE * actor.episode_index
            try:
                rows.append(actor.env.reset(seed=seed))
            except Exception as err:
                err.lane = lane
                raise
        return rows

    def step(self, actions):
        if len(actions) != self.n_actors:
            raise ValueError(f"need {self.n_actors} actions, got {len(actions)}")
        actions = actions.tolist() if isinstance(actions, np.ndarray) else actions
        for i, action in enumerate(actions):  # every check before any actor steps
            if not self.action_space.contains(action):
                raise ActionOutOfSpace(f"actor {i}: action {action!r} not in {self.action_space}")
        if self.mode == "parallel":
            return tuple(map(np.concatenate, zip(*self._exchange(actions))))
        obs, rewards, dones = self._step_lanes(self._envs, actions)
        final_obs = obs.copy()  # the stepped rows; obs takes each finished actor's next start
        if any(dones):
            finished = list(compress(range(self.n_actors), dones))
            obs[finished] = self._start(finished, next_episode=True)
        return obs, np.array(rewards, dtype=np.float64), np.array(dones, dtype=bool), final_obs

    def _exchange(self, actions: list | None) -> list:
        """Send each worker its shard's actions (None resets), then gather the
        replies in shard order; a worker's error or death raises ActorCrashed."""
        for conn, shard in zip(self._conns, self._shards):
            with suppress(ConnectionError):  # a dead worker: receiving from it says so
                conn.send(None if actions is None else actions[shard.start : shard.stop])
        replies = []
        for conn, proc, shard in zip(self._conns, self._procs, self._shards):
            try:
                reply = conn.recv()
            except (EOFError, ConnectionError):
                proc.join(timeout=5)
                where = f"actors {shard[0]}..{shard[-1]}"
                reply = ActorCrashed(f"{where}: worker exited with code {proc.exitcode}")
            if isinstance(reply, ActorCrashed):
                raise reply
            replies.append(reply)
        return replies

    def close(self) -> None:
        conns, self._conns = self._conns, []
        for conn in conns:
            with suppress(OSError):
                conn.send("close")
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)

    def __enter__(self) -> "VectorizedEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        with suppress(Exception):
            self.close()
