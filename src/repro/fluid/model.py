"""The mean-field ODE model of announce/listen (docs/SCALE.md).

Discrete picture first: with per-record announcement period ``Delta``
every (receiver, record) pair sees one announcement per epoch, received
with probability ``q = 1 - p``.  A pair holds the record while fewer
than ``m`` consecutive announcements have been lost since the last
receipt (``m`` = timeout multiple), so the epoch chain has states
``U, C_0 .. C_{m-1}`` and its stationary hold fraction is exactly
``1 - P_m`` where ``P_m = P(m consecutive announcements lost)``
(``p^m`` for Bernoulli loss; a two-state chain product for
Gilbert-Elliott, see :func:`consecutive_loss_probability`).

The fluid limit replaces the epoch chain with hazards chosen to match
it at both ends:

* **acquisition** ``a = -lambda * ln(p)`` — the exponential clock whose
  survival function equals the geometric acquisition law ``p^k`` at
  every epoch boundary ``t = k * Delta`` (``lambda = 1/Delta``);
* **expiry** ``h = a * P_m / (1 - P_m)`` — chosen so the ODE
  equilibrium ``a / (a + h)`` equals the discrete chain's ``1 - P_m``
  *exactly*, not just asymptotically.

State fractions (per (receiver, record) pair): ``n`` unaware (never
heard, or reset by churn), ``c`` consistent, ``s`` stale (holding a
superseded version), ``f`` falsely expired (timed out while the
publisher is alive).  With update rate ``nu`` and churn rate ``gamma``:

    dn/dt = -a*n            + gamma*(c + s + f)
    dc/dt =  a*(n + s + f)  - (nu + h + gamma)*c
    ds/dt =  nu*c           - (a + h + gamma)*s
    df/dt =  h*(c + s)      - (a + gamma)*f

``n = 1 - c - s - f`` is kept implicit so conservation holds to the
last bit.  The *reported* false-expiry rate uses the epoch-exact
coefficient ``lambda * q * P_m / (1 - P_m)`` per held pair (equal to
the discrete chain's ``lambda * q * P_m`` flow at equilibrium); the
hazard ``h`` drives the dynamics only.

The integrator is classical fixed-step RK4, vectorized over a whole
grid of parameter cells with numpy.  A scalar per-cell loop evaluates
the same expressions in the same order and stays as the reference:
``tests/fluid/test_model.py`` pins the two float64 trajectories
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.net.loss import GilbertElliottLoss, LossModel

__all__ = [
    "DEFAULT_DT",
    "FluidParams",
    "FluidRates",
    "FluidRun",
    "consecutive_loss_probability",
    "derive_rates",
    "mean_loss_probability",
    "solve",
    "solve_many",
]

#: Default RK4 step: announce/listen time constants are O(Delta) >= 1s
#: in every experiment, so 0.05 s keeps the local truncation error far
#: below the cross-validation tolerances while a full 80 s horizon is
#: still only 1600 steps.
DEFAULT_DT = 0.05

#: Loss probabilities are clamped here before ``ln(p)``: a perfect
#: channel would make the acquisition hazard infinite, but capping it
#: at ``lambda * ln(1/1e-12)`` keeps the ODE stiff-but-integrable and
#: the equilibrium indistinguishable from 1.
_MIN_LOSS = 1e-12


def mean_loss_probability(loss: Union[float, LossModel]) -> float:
    """Per-announcement loss probability ``p`` from a rate or a model."""
    if isinstance(loss, LossModel):
        return float(loss.mean_loss_rate)
    p = float(loss)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"loss probability must be in [0, 1], got {p}")
    return p


def consecutive_loss_probability(
    loss: Union[float, LossModel], m: int, stride: int = 1
) -> float:
    """``P_m``: probability ``m`` consecutive *observed* packets are lost.

    Bernoulli loss gives ``p^m`` exactly (stride-independent).  For
    Gilbert-Elliott the stationary two-state chain is stepped through
    the recursion matching :meth:`~repro.net.loss.GilbertElliottLoss
    .is_lost` (transition, then per-state loss draw); ``stride`` is how
    many channel packets apart the observed ones are — a receiver
    listening for one record among ``R`` interleaved ones sees that
    record every ``R``-th chain step, so its timeout chain is the
    ``stride=R`` decimation, between whose observations the chain makes
    ``stride - 1`` extra transitions.  For ``stride=1`` and the common
    ``bad_loss=1, good_loss=0`` chain this collapses to the textbook
    ``pi_bad * (1 - p_bg)^(m-1)``.  Other stateful models fall back to
    the independence approximation ``mean_loss_rate^m``.
    """
    if m < 1:
        raise ValueError(f"timeout multiple must be >= 1, got {m}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if isinstance(loss, GilbertElliottLoss):
        p_gb, p_bg = loss.p_gb, loss.p_bg
        bad, good = loss.bad_loss, loss.good_loss
        #: (g_good, g_bad): g_state(k) = P(next k observed packets all
        #: lost | chain in `state` before the next one), from g(0) = 1.
        g_good = g_bad = 1.0
        for _ in range(m):
            # The stride-1 intermediate packets advance the chain but
            # their loss outcomes are other records' problem.
            w_good, w_bad = g_good, g_bad
            for _ in range(stride - 1):
                w_good, w_bad = (
                    (1.0 - p_gb) * w_good + p_gb * w_bad,
                    p_bg * w_good + (1.0 - p_bg) * w_bad,
                )
            v_good = good * w_good
            v_bad = bad * w_bad
            g_good, g_bad = (
                (1.0 - p_gb) * v_good + p_gb * v_bad,
                p_bg * v_good + (1.0 - p_bg) * v_bad,
            )
        pi_bad = p_gb / (p_gb + p_bg)
        return (1.0 - pi_bad) * g_good + pi_bad * g_bad
    return mean_loss_probability(loss) ** m


@dataclass
class FluidParams:
    """One fluid cell: the announce/listen parameters of a population.

    ``loss`` is either a per-announcement loss probability (Bernoulli)
    or any :class:`~repro.net.loss.LossModel`; ``n_receivers`` scales
    absolute rates only — the trajectory itself is N-independent, which
    is the whole point of the fluid backend.
    """

    loss: Union[float, LossModel]
    refresh_interval: float = 1.0
    timeout_multiple: int = 4
    update_rate: float = 0.0
    churn_rate: float = 0.0
    n_receivers: float = 1.0
    #: Channel packets between announcements of the *same* record — the
    #: store size for a round-robin sender.  Only matters for bursty
    #: (stateful) loss, where it decimates the chain; see
    #: :func:`consecutive_loss_probability`.
    loss_stride: int = 1

    def __post_init__(self) -> None:
        if self.refresh_interval <= 0:
            raise ValueError(
                f"refresh_interval must be positive, got {self.refresh_interval}"
            )
        if self.timeout_multiple < 1:
            raise ValueError(
                f"timeout_multiple must be >= 1, got {self.timeout_multiple}"
            )
        for name in ("update_rate", "churn_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.n_receivers <= 0:
            raise ValueError(
                f"n_receivers must be positive, got {self.n_receivers}"
            )
        if self.loss_stride < 1:
            raise ValueError(
                f"loss_stride must be >= 1, got {self.loss_stride}"
            )
        mean_loss_probability(self.loss)  # validates range


@dataclass(frozen=True)
class FluidRates:
    """Derived hazards and the closed-form equilibrium of one cell."""

    acquire: float  # a: unaware/stale/expired -> consistent
    expire: float  # h: held -> falsely expired (dynamics)
    update: float  # nu: consistent -> stale
    churn: float  # gamma: any aware state -> unaware
    #: Reported false-expiry rate per *held* pair per second — the
    #: epoch-exact coefficient, not the exponentialized hazard.
    false_expiry: float
    consistent_eq: float
    stale_eq: float
    expired_eq: float

    @property
    def hold_eq(self) -> float:
        """Equilibrium held fraction (= ``1 - P_m`` when nu=gamma=0)."""
        return self.consistent_eq + self.stale_eq


def derive_rates(params: FluidParams) -> FluidRates:
    """Hazards + equilibrium from announce/listen parameters."""
    lam = 1.0 / params.refresh_interval
    p = mean_loss_probability(params.loss)
    p_m = consecutive_loss_probability(
        params.loss, params.timeout_multiple, params.loss_stride
    )
    if p >= 1.0:
        acquire = 0.0
    else:
        acquire = -lam * math.log(max(p, _MIN_LOSS))
    if acquire > 0.0 and 0.0 < p_m < 1.0:
        expire = acquire * p_m / (1.0 - p_m)
        false_expiry = lam * (1.0 - p) * p_m / (1.0 - p_m)
    else:
        expire = 0.0
        false_expiry = 0.0
    nu = params.update_rate
    gamma = params.churn_rate
    denom = acquire + nu + expire + gamma
    consistent = acquire / denom if denom > 0 else 0.0
    aware_decay = acquire + expire + gamma
    stale = nu * consistent / aware_decay if aware_decay > 0 else 0.0
    expired_decay = acquire + gamma
    expired = (
        expire * (consistent + stale) / expired_decay
        if expired_decay > 0
        else 0.0
    )
    return FluidRates(
        acquire=acquire,
        expire=expire,
        update=nu,
        churn=gamma,
        false_expiry=false_expiry,
        consistent_eq=consistent,
        stale_eq=stale,
        expired_eq=expired,
    )


@dataclass
class FluidRun:
    """One integrated trajectory: per-pair state fractions over time.

    Series are plain python floats (picklable, cache- and
    telemetry-friendly); ``expiries`` is the cumulative expected number
    of false expiries *per pair* (multiply by ``n_receivers * records``
    for an absolute count).
    """

    params: FluidParams
    rates: FluidRates
    times: List[float]
    consistent: List[float]
    stale: List[float]
    expired: List[float]
    expiries: List[float]

    @property
    def hold(self) -> List[float]:
        """Held fraction c+s — what a DES consistency sample measures."""
        return [c + s for c, s in zip(self.consistent, self.stale)]

    def false_expiry_rate(self, at: int = -1) -> float:
        """Absolute false-expiry rate (per second) at sample ``at``."""
        held = self.consistent[at] + self.stale[at]
        return self.rates.false_expiry * held * self.params.n_receivers


def solve(
    params: FluidParams, horizon: float, dt: float = DEFAULT_DT
) -> FluidRun:
    """Integrate one cell; see :func:`solve_many`."""
    return solve_many([params], horizon, dt)[0]


def solve_many(
    params_list: Sequence[FluidParams], horizon: float, dt: float = DEFAULT_DT
) -> List[FluidRun]:
    """Integrate a whole grid of cells in one vectorized RK4 pass.

    All cells share the time grid; the state array is shape ``(M, 4)``
    for M cells, so the per-step cost is a handful of length-M vector
    ops — solving a million-receiver sweep costs the same as a
    ten-receiver one.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    params_list = list(params_list)
    if not params_list:
        return []
    steps = max(1, int(round(horizon / dt)))
    rates = [derive_rates(p) for p in params_list]
    a = [r.acquire for r in rates]
    h = [r.expire for r in rates]
    nu = [r.update for r in rates]
    gamma = [r.churn for r in rates]
    fe = [r.false_expiry for r in rates]
    series = _integrate_numpy(a, h, nu, gamma, fe, steps, dt)
    times = [i * dt for i in range(steps + 1)]
    runs = []
    for index, (params, cell_rates) in enumerate(zip(params_list, rates)):
        consistent, stale, expired, expiries = series[index]
        runs.append(
            FluidRun(
                params=params,
                rates=cell_rates,
                times=times,
                consistent=consistent,
                stale=stale,
                expired=expired,
                expiries=expiries,
            )
        )
    return runs


# -- integrators ------------------------------------------------------------
#
# Both compute the identical expressions in the identical order:
# numpy's elementwise float64 ops round exactly like scalar python
# floats, so the trajectories agree to the last bit and the scalar loop
# is an exact reference (no tolerance laundering in the
# cross-validation tests).  The derivative uses the n-eliminated form:
#
#   dc = a*(1 - c) - (nu + h + gamma)*c      [a*(n+s+f) = a*(1-c)]
#   ds = nu*c - (a + h + gamma)*s
#   df = h*(c + s) - (a + gamma)*f
#   dE = fe*(c + s)


def _integrate_numpy(a, h, nu, gamma, fe, steps, dt):
    a = np.asarray(a, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    fe = np.asarray(fe, dtype=np.float64)
    cells = a.shape[0]
    c_decay = nu + h + gamma
    s_decay = a + h + gamma
    f_decay = a + gamma

    def deriv(c, s, f):
        dc = a * (1.0 - c) - c_decay * c
        ds = nu * c - s_decay * s
        df = h * (c + s) - f_decay * f
        de = fe * (c + s)
        return dc, ds, df, de

    c = np.zeros(cells)
    s = np.zeros(cells)
    f = np.zeros(cells)
    e = np.zeros(cells)
    out_c = np.empty((steps + 1, cells))
    out_s = np.empty((steps + 1, cells))
    out_f = np.empty((steps + 1, cells))
    out_e = np.empty((steps + 1, cells))
    out_c[0] = c
    out_s[0] = s
    out_f[0] = f
    out_e[0] = e
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, steps + 1):
        k1c, k1s, k1f, k1e = deriv(c, s, f)
        k2c, k2s, k2f, k2e = deriv(
            c + half * k1c, s + half * k1s, f + half * k1f
        )
        k3c, k3s, k3f, k3e = deriv(
            c + half * k2c, s + half * k2s, f + half * k2f
        )
        k4c, k4s, k4f, k4e = deriv(c + dt * k3c, s + dt * k3s, f + dt * k3f)
        c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        f = f + sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        e = e + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        out_c[step] = c
        out_s[step] = s
        out_f[step] = f
        out_e[step] = e
    return [
        (
            out_c[:, i].tolist(),
            out_s[:, i].tolist(),
            out_f[:, i].tolist(),
            out_e[:, i].tolist(),
        )
        for i in range(cells)
    ]


def _integrate_python(a, h, nu, gamma, fe, steps, dt):
    """The scalar reference: the defining per-cell RK4 loop."""
    series = []
    half = 0.5 * dt
    sixth = dt / 6.0
    for a_i, h_i, nu_i, gamma_i, fe_i in zip(a, h, nu, gamma, fe):
        c_decay = nu_i + h_i + gamma_i
        s_decay = a_i + h_i + gamma_i
        f_decay = a_i + gamma_i

        def deriv(c, s, f):
            dc = a_i * (1.0 - c) - c_decay * c
            ds = nu_i * c - s_decay * s
            df = h_i * (c + s) - f_decay * f
            de = fe_i * (c + s)
            return dc, ds, df, de

        c = s = f = e = 0.0
        cs = [c]
        ss = [s]
        fs = [f]
        es = [e]
        for _ in range(steps):
            k1c, k1s, k1f, k1e = deriv(c, s, f)
            k2c, k2s, k2f, k2e = deriv(
                c + half * k1c, s + half * k1s, f + half * k1f
            )
            k3c, k3s, k3f, k3e = deriv(
                c + half * k2c, s + half * k2s, f + half * k2f
            )
            k4c, k4s, k4f, k4e = deriv(
                c + dt * k3c, s + dt * k3s, f + dt * k3f
            )
            c = c + sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
            s = s + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
            f = f + sixth * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
            e = e + sixth * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            cs.append(c)
            ss.append(s)
            fs.append(f)
            es.append(e)
        series.append((cs, ss, fs, es))
    return series
