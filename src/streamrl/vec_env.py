"""Batched facade over N seeded replicas of one environment.

Actor i starts from seed base_seed + i and, whenever its episode finishes,
is automatically reset with seed base_seed + i + 10**6 * episode_index so any
episode is reproducible in isolation. On auto-reset the returned row is the
first observation of the next episode and the true terminal observation is
serialized under info["terminal_obs"].

Serial mode steps the actors in-process; parallel mode gives each actor its
own worker process behind a send-all/gather-all barrier. Both modes produce
bitwise-identical results, with rows always ordered by actor index. An error
raised in a worker comes back to the parent as ActorCrashed, naming the
actor; in serial mode the env's own exception propagates.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import Callable, Literal

import numpy as np

from .core_env import ActionOutOfSpace, Environment, serialize_obs

EPISODE_SEED_STRIDE = 1_000_000


class _Actor:
    """One env replica plus its seeding schedule and auto-reset behavior."""

    def __init__(self, factory: Callable[[], Environment], index: int, base_seed: int):
        self.env = factory()
        self.index = index
        self.base_seed = base_seed
        self.episode_index = 0

    def reset(self) -> np.ndarray:
        self.episode_index = 0
        return self.env.reset(seed=self.base_seed + self.index)

    def step(self, action):
        result = self.env.step(action)
        info = dict(result.info)
        obs = result.obs
        if result.done:
            info["terminal_obs"] = serialize_obs(result.obs)
            self.episode_index += 1
            obs = self.env.reset(
                seed=self.base_seed + self.index + EPISODE_SEED_STRIDE * self.episode_index
            )
        return obs, result.reward, result.done, info


class ActorCrashed(RuntimeError):
    """An actor's worker process raised; the message names the actor."""


class _Failure:
    """What a worker sends back instead of a result when its env raised."""

    def __init__(self, message: str):
        self.message = message


def _worker(conn, factory, index, base_seed):
    try:
        actor = _Actor(factory, index, base_seed)
        while True:
            cmd, payload = conn.recv()
            if cmd == "reset":
                conn.send(actor.reset())
            elif cmd == "step":
                conn.send(actor.step(payload))
            elif cmd == "close":
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception as err:  # report to the parent, which re-raises it
        conn.send(_Failure(f"{type(err).__name__}: {err}"))
    finally:
        conn.close()


class VectorizedEnv:
    """N lockstep actors over one env factory. Not safe for concurrent calls."""

    def __init__(
        self,
        env_factory: Callable[[], Environment],
        n_actors: int,
        base_seed: int = 0,
        mode: Literal["serial", "parallel"] = "serial",
    ):
        if n_actors < 1:
            raise ValueError("n_actors must be >= 1")
        if mode not in ("serial", "parallel"):
            raise ValueError(f"unknown mode {mode!r}")
        self.n_actors = n_actors
        self.base_seed = base_seed
        self.mode = mode
        self._closed = False
        if mode == "serial":
            self.actors = [_Actor(env_factory, i, base_seed) for i in range(n_actors)]
            template = self.actors[0].env
        else:
            template = env_factory()
            ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
            self._conns = []
            self._procs = []
            for i in range(n_actors):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker, args=(child_conn, env_factory, i, base_seed), daemon=True
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        self.action_space = template.action_space
        self.observation_space = template.observation_space

    def reset(self) -> np.ndarray:
        if self.mode == "serial":
            rows = [actor.reset() for actor in self.actors]
        else:
            for conn in self._conns:
                conn.send(("reset", None))
            rows = self._gather()
        return np.stack(rows)

    def step(self, actions):
        if len(actions) != self.n_actors:
            raise ValueError(f"need {self.n_actors} actions, got {len(actions)}")
        for i, action in enumerate(actions):
            if not self.action_space.contains(action):
                raise ActionOutOfSpace(f"actor {i}: action {action!r} not in {self.action_space}")
        if self.mode == "serial":
            results = [actor.step(a) for actor, a in zip(self.actors, actions)]
        else:
            for conn, action in zip(self._conns, actions):
                conn.send(("step", action))
            results = self._gather()
        obs = np.stack([r[0] for r in results])
        rewards = np.array([r[1] for r in results], dtype=np.float64)
        dones = np.array([r[2] for r in results], dtype=bool)
        infos = [r[3] for r in results]
        return obs, rewards, dones, infos

    def _gather(self) -> list:
        """One reply per worker, in actor order; re-raises a worker's error."""
        replies = [conn.recv() for conn in self._conns]
        for i, reply in enumerate(replies):
            if isinstance(reply, _Failure):
                raise ActorCrashed(f"actor {i}: {reply.message}")
        return replies

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.mode == "parallel":
            for conn in self._conns:
                try:
                    conn.send(("close", None))
                    conn.close()
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=5)

    def __enter__(self) -> "VectorizedEnv":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
