"""Figure regeneration: data builders and ASCII rendering.

The paper has one figure with two panels.  For each panel this module
provides (1) a *data builder* that runs the corresponding simulation and
returns the plotted series as plain arrays, and (2) an ASCII renderer so the
benchmark harness can print a recognisable version of the figure to the
terminal without a plotting dependency.

* :func:`build_fig1a_data` — "AoI-aware content caching": AoI trajectories of
  two contents cached at RSU 1 plus the cumulative MBS reward.
* :func:`build_fig1b_data` — "Delay-aware content service": the UV latency
  queue Q[t] under the Lyapunov policy and the two comparison algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.service import AlwaysServePolicy, CostGreedyPolicy
from repro.core.caching_mdp import MDPCachingPolicy
from repro.core.lyapunov import LyapunovServiceController
from repro.core.policies import CachingPolicy, ServicePolicy
from repro.exceptions import ValidationError
from repro.sim import CacheSimulator, ScenarioConfig, ServiceSimulator
from repro.utils.validation import check_positive_int


@dataclass
class Fig1aData:
    """The series plotted in Fig. 1a.

    Attributes
    ----------
    times:
        Slot indices.
    content_ages:
        ``{label: ages}`` — AoI trajectories of the tracked contents
        (two contents of RSU 1 by default, as in the paper).
    content_max_ages:
        ``{label: A_max}`` for the tracked contents.
    cumulative_reward:
        Running total of the Eq. (1) utility.
    policy_name:
        Name of the caching policy that produced the run.
    """

    times: np.ndarray
    content_ages: Dict[str, np.ndarray]
    content_max_ages: Dict[str, float]
    cumulative_reward: np.ndarray
    policy_name: str

    def violation_fraction(self, label: str) -> float:
        """Fraction of slots in which *label* exceeded its maximum age."""
        if label not in self.content_ages:
            raise ValidationError(f"unknown tracked content {label!r}")
        ages = self.content_ages[label]
        return float(np.mean(ages > self.content_max_ages[label]))


@dataclass
class Fig1bData:
    """The series plotted in Fig. 1b.

    Attributes
    ----------
    times:
        Slot indices.
    latency:
        ``{policy name: Q[t] series}`` — the accumulated-waiting-time queue
        for the proposed policy and each comparison algorithm.
    time_average_cost:
        ``{policy name: time-average service cost}`` (the Eq. 4 objective).
    time_average_backlog:
        ``{policy name: time-average Q[t]}``.
    """

    times: np.ndarray
    latency: Dict[str, np.ndarray]
    time_average_cost: Dict[str, float]
    time_average_backlog: Dict[str, float]


def build_fig1a_data(
    config: Optional[ScenarioConfig] = None,
    *,
    policy: Optional[CachingPolicy] = None,
    tracked_rsu: int = 0,
    tracked_slots: Sequence[int] = (0, 1),
    num_slots: Optional[int] = None,
) -> Fig1aData:
    """Run the Fig. 1a experiment and return its plotted series.

    Parameters
    ----------
    config:
        Scenario; defaults to :meth:`ScenarioConfig.fig1a` (4 RSUs x 5
        contents, 1000 slots).
    policy:
        Caching policy; defaults to the paper's MDP policy.
    tracked_rsu:
        RSU whose contents are traced (the paper shows RSU 1; indices here
        are 0-based so the default 0 is "RSU 1").
    tracked_slots:
        Which of that RSU's cache slots to trace (two, as in the paper).
    num_slots:
        Optional horizon override (used by fast tests).
    """
    config = config or ScenarioConfig.fig1a()
    if policy is None:
        policy = MDPCachingPolicy(config.build_mdp_config())
    if not 0 <= tracked_rsu < config.num_rsus:
        raise ValidationError(
            f"tracked_rsu {tracked_rsu} out of range [0, {config.num_rsus})"
        )
    for slot in tracked_slots:
        if not 0 <= slot < config.contents_per_rsu:
            raise ValidationError(
                f"tracked slot {slot} out of range [0, {config.contents_per_rsu})"
            )
    result = CacheSimulator(config, policy).run(num_slots=num_slots)
    content_ages: Dict[str, np.ndarray] = {}
    content_max_ages: Dict[str, float] = {}
    for slot in tracked_slots:
        trace = result.metrics.age_trace(tracked_rsu, slot)
        label = f"RSU{tracked_rsu + 1}-content{slot + 1}"
        content_ages[label] = trace.ages
        content_max_ages[label] = trace.max_age
    horizon = result.metrics.num_slots_recorded
    return Fig1aData(
        times=np.arange(horizon),
        content_ages=content_ages,
        content_max_ages=content_max_ages,
        cumulative_reward=result.cumulative_reward,
        policy_name=result.policy_name,
    )


def build_fig1b_data(
    config: Optional[ScenarioConfig] = None,
    *,
    policies: Optional[Dict[str, ServicePolicy]] = None,
    num_slots: Optional[int] = None,
) -> Fig1bData:
    """Run the Fig. 1b experiment and return its plotted series.

    Parameters
    ----------
    config:
        Scenario; defaults to :meth:`ScenarioConfig.fig1b` (5 RSUs, random
        requests, 1000 slots).
    policies:
        ``{name: policy}`` to compare; defaults to the proposed Lyapunov
        controller plus the always-serve and cost-greedy baselines ("the
        other two algorithms" of the figure).
    num_slots:
        Optional horizon override.
    """
    config = config or ScenarioConfig.fig1b()
    if policies is None:
        policies = {
            "lyapunov": LyapunovServiceController(config.tradeoff_v),
            "always-serve": AlwaysServePolicy(),
            "cost-greedy": CostGreedyPolicy(backlog_cap=50.0),
        }
    latency: Dict[str, np.ndarray] = {}
    cost: Dict[str, float] = {}
    backlog: Dict[str, float] = {}
    horizon = 0
    for name, policy in policies.items():
        result = ServiceSimulator(config, policy).run(num_slots=num_slots)
        latency[name] = result.latency_history
        cost[name] = result.time_average_cost
        backlog[name] = result.metrics.time_average_backlog
        horizon = result.metrics.num_slots_recorded
    return Fig1bData(
        times=np.arange(horizon),
        latency=latency,
        time_average_cost=cost,
        time_average_backlog=backlog,
    )


# ----------------------------------------------------------------------
# ASCII rendering
# ----------------------------------------------------------------------
def render_series(
    series: Dict[str, Sequence[float]],
    *,
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Render one or more numeric series as an ASCII line chart.

    Each series is downsampled to *width* columns and scaled to a shared
    vertical axis of *height* rows; distinct series use distinct glyphs.
    Intended for benchmark output, not publication graphics.
    """
    width = check_positive_int(width, "width")
    height = check_positive_int(height, "height")
    if not series:
        raise ValidationError("series must contain at least one entry")
    glyphs = "*o+x#@%&"
    prepared: Dict[str, np.ndarray] = {}
    for name, values in series.items():
        data = np.asarray(values, dtype=float)
        if data.ndim != 1 or data.size == 0:
            raise ValidationError(f"series {name!r} must be a non-empty 1-D sequence")
        prepared[name] = data
    global_min = min(float(np.min(d)) for d in prepared.values())
    global_max = max(float(np.max(d)) for d in prepared.values())
    if global_max == global_min:
        global_max = global_min + 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, data) in enumerate(prepared.items()):
        glyph = glyphs[index % len(glyphs)]
        columns = np.linspace(0, data.size - 1, width).astype(int)
        sampled = data[columns]
        rows = (
            (sampled - global_min) / (global_max - global_min) * (height - 1)
        ).astype(int)
        for col, row in enumerate(rows):
            grid[height - 1 - int(row)][col] = glyph
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"max={global_max:.4g}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"min={global_min:.4g}")
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(prepared)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def render_fig1a(data: Fig1aData, *, width: int = 72, height: int = 12) -> str:
    """Render the Fig. 1a panels (AoI traces and cumulative reward) as text."""
    aoi_chart = render_series(
        dict(data.content_ages),
        width=width,
        height=height,
        title=f"Fig. 1a (top): content AoI over time [{data.policy_name}]",
    )
    reward_chart = render_series(
        {"cumulative reward": data.cumulative_reward},
        width=width,
        height=height,
        title="Fig. 1a (bottom): cumulative MBS reward",
    )
    return aoi_chart + "\n\n" + reward_chart


def render_fig1b(data: Fig1bData, *, width: int = 72, height: int = 14) -> str:
    """Render the Fig. 1b panel (latency queue comparison) as text."""
    chart = render_series(
        dict(data.latency),
        width=width,
        height=height,
        title="Fig. 1b: UV latency queue Q[t] by service policy",
    )
    rows = [
        f"  {name:>18s}: time-avg cost = {data.time_average_cost[name]:8.3f}, "
        f"time-avg backlog = {data.time_average_backlog[name]:8.2f}"
        for name in data.latency
    ]
    return chart + "\n" + "\n".join(rows)
