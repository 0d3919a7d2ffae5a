"""Continual reinforcement learning on streams of environment experiences.

The pieces compose bottom-up: core_env defines the environment contract and
wrappers; envs has the concrete cart-pole/gridworld/bandit environments;
benchmarks arranges environments into train/eval experience streams;
vec_env batches seeded env replicas; nn is a small numpy MLP stack with
exact gradients; training holds the rollout/update strategy engine (DQN,
A2C) with its plugin callback system; plugins adds EWC and cross-experience
replay; task_stream layers task/scene schedules over a single shared env;
evaluation records metrics and forgetting; cli runs experiments from YAML.
"""

from .benchmarks import (
    EnvSpec,
    Explicit,
    RandomSample,
    RLExperience,
    RLScenario,
    continual_control_generator,
    gym_benchmark_generator,
)
from .core_env import (
    ActionOutOfSpace,
    ActionRemap,
    BoxSpace,
    Discrete,
    Environment,
    EnvError,
    EpisodeAlreadyDone,
    FrameStack,
    IncompatibleSpace,
    ObservationNormalize,
    ReducedActionSet,
    RewardClip,
    StepResult,
    TimeLimit,
    deserialize_obs,
    serialize_obs,
    wrap,
    wrap_all,
)
from .envs import (
    Bandit,
    BanditParams,
    CartPole,
    CartPoleParams,
    GridScene,
    GridWorld,
    InvalidParams,
    SceneFormatError,
    cartpole_derivatives,
    one_hot_cell,
    parse_scene,
)
from .evaluation import (
    ForgettingMatrix,
    JsonlLogger,
    CsvLogger,
    MetricRecord,
    MetricsCollector,
    StdoutLogger,
    WindowedScalar,
    read_metrics_csv,
    read_metrics_jsonl,
)
from .nn import Adam, Mlp, Sgd, entropy_loss, huber_loss, mse_loss, policy_gradient_loss, softmax
from .plugins import EwcPlugin, EwcState, NaivePlugin, ReplayPlugin, ewc_penalty_and_grad
from .task_stream import (
    EveryNEpisodes,
    EveryNSteps,
    GridState,
    MaxEpisodes,
    MaxSteps,
    OnTaskChange,
    SceneManager,
    StreamExhausted,
    SwapEvent,
    Task,
    TaskIterator,
    TaskStreamConfigError,
    TaskStreamEnv,
    build_task,
    task_stream_benchmark_generator,
)
from .training import (
    A2cStrategy,
    DqnStrategy,
    Episodes,
    EvalResult,
    ReplayBuffer,
    RLBaseStrategy,
    Rollout,
    Steps,
    StrategyPlugin,
    TrainingBudget,
    TrainingReport,
    Transitions,
)
from .vec_env import VectorizedEnv

__version__ = "0.1.0"
