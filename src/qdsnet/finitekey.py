"""Finite-size security analysis for a two-intensity decoy-state key link.

The analysis runs in two steps.  link_bounds evaluates the whole-key
bounds once per tally: the vacuum and single-photon parts of the Z key
(Hoeffding concentration on the observed counts) and the phase error
that the X-basis single-photon error rate bounds by a random-sampling
tail.  _entropy_at transfers them onto one L-bit substring and returns
its smooth min-entropy, which security_bounds turns into the scheme's
robustness, repudiation and forgery probabilities.  The leakage is
always the measured one, never an assumed efficiency, and every quantity
is a closed-form scalar, so the minimal secure length is a direct scan;
it stops early once a bound linear in L rules out every later length.

The analysis has one convention: every Hoeffding deviation and
sampling tail uses the natural logarithm, and the decoy (nu) error
count anchors the vacuum upper bound.  Base-2 logarithms or a mu-anchored
vacuum bound were evaluated on the bundled reference rows and reproduce
none of them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

_LAMBDA_FLOOR = 1e-12


class AnalysisError(RuntimeError):
    """Base class for security-analysis failures."""


class InsufficientDataError(AnalysisError):
    """No detections, accumulation time, leakage or single-photon bound."""


class LinkInsecureError(AnalysisError):
    """No substring length meets the target failure probability."""

    def __init__(self, message: str, best_eps: float, best_len: int | None):
        super().__init__(message)
        self.best_eps = best_eps
        self.best_len = best_len


def require_real(name: str, value):
    """Raise ValueError naming the value unless it is a number, not a
    bool, that converts to a finite float; returns it."""
    try:
        finite = (isinstance(value, numbers.Real)
                  and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        raise ValueError(f"{name} must be a finite number, got an integer "
                         "beyond float range") from None
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def require_object(name: str, value) -> dict:
    """Raise ValueError naming the value unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


def require_known(name: str, value, known) -> dict:
    """require_object, then raise ValueError naming every key of value
    that is not in known; returns value."""
    unknown = sorted(set(require_object(name, value)) - set(known))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return value


def require_count(name: str, value) -> int:
    """require_real on a nonnegative integer; returns it."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return require_real(name, value)


def require_real_fields(obj) -> None:
    """require_real on every field of a dataclass instance."""
    for field in fields(obj):
        require_real(field.name, getattr(obj, field.name))


@dataclass(frozen=True)
class IntensityConfig:
    """Signal/decoy intensities and their priors, all the analysis reads."""

    mu: float
    nu: float
    p_mu: float
    p_nu: float

    def __post_init__(self):
        require_real_fields(self)
        if not 0 < self.nu < self.mu:
            raise ValueError("need 0 < nu < mu")
        for name in ("p_nu", "p_mu"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        # published tables print the priors to 3 decimals (200 km A-C:
        # 0.768 + 0.233), so allow a little slack in their sum
        if abs(self.p_mu + self.p_nu - 1.0) > 5e-3:
            raise ValueError("p_mu + p_nu must sum to 1")


@dataclass(frozen=True)
class DetectionTally:
    """Sifted detection/error counts per basis and intensity for one link.

    n_* are sifted detection counts, m_* the bit errors among them; the
    suffix names the sender intensity.  n_z_total, the sifted Z key
    length, must equal n_z_mu + n_z_nu.  accumulation_time_s is the
    wall-clock time the tally took.
    """

    n_z_mu: int
    n_z_nu: int
    m_z_mu: int
    m_z_nu: int
    n_x_mu: int
    n_x_nu: int
    m_x_mu: int
    m_x_nu: int
    n_z_total: int
    accumulation_time_s: float

    def __post_init__(self):
        for name in ("n_z_mu", "n_z_nu", "m_z_mu", "m_z_nu",
                     "n_x_mu", "n_x_nu", "m_x_mu", "m_x_nu", "n_z_total"):
            require_count(name, getattr(self, name))
        for basis in ("z", "x"):
            for inten in ("mu", "nu"):
                n = getattr(self, f"n_{basis}_{inten}")
                m = getattr(self, f"m_{basis}_{inten}")
                if m > n:
                    raise ValueError(f"m_{basis}_{inten} exceeds n_{basis}_{inten}")
        if self.n_z_total != self.n_z_mu + self.n_z_nu:
            raise ValueError("n_z_total must equal n_z_mu + n_z_nu")
        if require_real("accumulation_time_s", self.accumulation_time_s) < 0:
            raise ValueError("accumulation_time_s must be nonnegative")

    def detections_total(self, basis: str) -> int:
        return getattr(self, f"n_{basis}_mu") + getattr(self, f"n_{basis}_nu")

    def errors_total(self, basis: str) -> int:
        return getattr(self, f"m_{basis}_mu") + getattr(self, f"m_{basis}_nu")

    @property
    def e_z(self) -> float:
        """Pooled Z-basis error rate across both intensities."""
        return self.errors_total("z") / self.detections_total("z")


@dataclass(frozen=True)
class SecurityTargets:
    """One link's failure budget; the measured fields are None until measured."""

    eps_sf: float
    eps_cor: float
    eps_target: float
    message_len_bits: int | None = None
    lambda_ec_bits: float | None = None

    def __post_init__(self):
        for name in ("eps_sf", "eps_cor", "eps_target"):
            if not 0 < require_real(name, getattr(self, name)) < 1:
                raise ValueError(f"{name} must be in (0, 1)")
        require_real("eps_cor's tag cost log2(2 / eps_cor)",
                     math.log2(2 / self.eps_cor))
        m = self.message_len_bits
        if m is not None and (require_count("message_len_bits", m) < 8 or m % 8):
            raise ValueError("message_len_bits must be a positive multiple of 8")
        if (self.lambda_ec_bits is not None
                and require_real("lambda_ec_bits", self.lambda_ec_bits) < 0):
            raise ValueError("lambda_ec_bits must be nonnegative")


@dataclass(frozen=True)
class SecurityReport:
    """Full output of the analysis chain at one substring length."""

    tau0: float
    tau1: float
    s_z0_l: float
    s_z1_l: float
    s_z0_u: float
    s_x1_l: float
    v_x1_u: float
    phi_z_u: float
    e_z: float
    h_min_per_L: float
    eps_rob: float
    eps_rep: float
    eps_for: float
    eps: float
    signature_len_bits: int
    signature_rate_tps: float

    def to_dict(self) -> dict:
        return asdict(self)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary_entropy needs x in [0, 1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def tau(n: int, cfg: IntensityConfig) -> float:
    """Probability that a sent pulse carries exactly n photons."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    return sum(
        p * math.exp(-k) * k ** n / math.factorial(n)
        for k, p in ((cfg.mu, cfg.p_mu), (cfg.nu, cfg.p_nu))
    )


def hoeffding_shift(count: int, total: int, k_intensity: float,
                    prior: float, eps_sf: float, upper: bool) -> float:
    """Finite-size corrected count (e^k / P_k) * (count +- delta).

    prior is P_k, the probability of sending intensity k.  delta =
    sqrt((total / 2) * log(1 / eps_sf)) is the Hoeffding deviation for
    the pooled sample of `total` events; an empty sample deviates by 0.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    delta = math.sqrt(total / 2 * -math.log(eps_sf))
    shifted = count + delta if upper else count - delta
    return math.exp(k_intensity) / prior * shifted


def gamma_upper(n: float, k: float, eps: float, lam: float) -> float:
    """Random-sampling deviation for drawing n of n+k bits without replacement.

    Bounds how much the rate of a property in the drawn n bits can exceed
    lam, its rate in the full population, except with probability eps.
    """
    if n <= 0 or k <= 0:
        raise ValueError("gamma_upper needs n > 0 and k > 0")
    lam = min(max(lam, _LAMBDA_FLOOR), 1.0 - _LAMBDA_FLOOR)
    total = n + k
    arg = total / (2 * math.pi * n * k * lam * (1 - lam) * eps ** 2)
    # a log argument <= 1 means the tail bound is vacuous at this size
    g = max(total / (n * k) * -math.log(1.0 / arg), 0.0)
    a = max(n, k)
    num = (1 - 2 * lam) * a * g / total + math.sqrt(
        a ** 2 * g ** 2 / total ** 2 + 4 * lam * (1 - lam) * g)
    den = 2 + 2 * a ** 2 * g / total ** 2
    return num / den


def phase_error_upper(s_z1: float, s_x1: float, v_x1: float,
                      eps_sf: float) -> float:
    """Upper bound on the single-photon phase error rate of the Z key.

    s_z1 and s_x1 are the single-photon lower bounds of the Z and X
    bases and v_x1 the upper bound on single-photon X errors.  The
    X-basis single-photon error rate estimates the Z-basis phase error
    rate; gamma_upper covers the statistical transfer between the two
    finite samples.  Raises InsufficientDataError when either
    single-photon count cannot be bounded away from zero.
    """
    if s_x1 <= 0:
        raise InsufficientDataError(
            "X-basis single-photon lower bound is not positive")
    if s_z1 <= 0:
        raise InsufficientDataError(
            "Z-basis single-photon lower bound is not positive")
    ratio = v_x1 / s_x1
    phi = ratio + gamma_upper(s_z1, s_x1, eps_sf, ratio)
    return min(max(phi, 0.0), 0.5)


def security_bounds(h_n: float, message_len_bits: int, eps_cor: float
                    ) -> tuple[float, float, float, float]:
    """(eps_rob, eps_rep, eps_for, eps) from the substring min-entropy.

    Robustness fails only if either reconciliation verification fails;
    repudiation needs Bob and Charlie to disagree, impossible once their
    shares are symmetrized; forgery needs a digest collision under an
    attacker ignorant of H_n bits of the hash key.
    """
    eps_rob = 2 * eps_cor
    eps_rep = 0.0
    try:
        eps_for = message_len_bits / 8 * 2.0 ** (1.0 - h_n)
    except OverflowError:
        eps_for = math.inf
    # eps_for first, so that a NaN forgery bound is the result
    return eps_rob, eps_rep, eps_for, max(eps_for, eps_rob, eps_rep)


@dataclass(frozen=True)
class LinkBounds:
    """Whole-key quantities shared by every candidate substring length."""

    tau0: float
    tau1: float
    s_z0_l: float
    s_z0_u: float
    s_z1_l: float
    s_x1_l: float
    v_x1_u: float
    phi_z_u: float
    e_z: float
    lambda_ec: float
    n_z: int
    time_s: float


def link_bounds(tally: DetectionTally, cfg: IntensityConfig,
                targets: SecurityTargets) -> LinkBounds:
    """Evaluate every length-independent bound once.

    Each basis's Hoeffding-corrected counts are computed once.  Vacuum
    detections err half the time, so twice the corrected decoy (nu) error
    count plus a sampling deviation caps them; the cap enters the basis's
    single-photon lower bound.  Raises InsufficientDataError without a
    measured message_len_bits or lambda_ec_bits, when n_Z / t is not
    finite, and when a bound before its clamp is not finite or leaves
    float range.
    """
    if tally.detections_total("z") == 0 or tally.detections_total("x") == 0:
        raise InsufficientDataError(
            "no detections in at least one basis; nothing to bound")
    t = tally.accumulation_time_s
    if t == 0 or not math.isfinite(tally.n_z_total / t):
        raise InsufficientDataError(
            f"accumulation_time_s = {t:g} gives no finite signature rate")
    for name in ("message_len_bits", "lambda_ec_bits"):
        if getattr(targets, name) is None:
            raise InsufficientDataError(f"no measured {name}")
    mu, nu, eps_sf = cfg.mu, cfg.nu, targets.eps_sf
    raw = {}    # each bound before its clamp, which must not hide inf or NaN
    try:
        t0, t1 = tau(0, cfg), tau(1, cfg)
        per_basis = {}
        for basis in ("z", "x"):
            n_total = tally.detections_total(basis)
            n_nu_low = hoeffding_shift(getattr(tally, f"n_{basis}_nu"),
                                       n_total, nu, cfg.p_nu, eps_sf,
                                       upper=False)
            n_mu_high = hoeffding_shift(getattr(tally, f"n_{basis}_mu"),
                                        n_total, mu, cfg.p_mu, eps_sf,
                                        upper=True)
            m_nu_high = hoeffding_shift(getattr(tally, f"m_{basis}_nu"),
                                        tally.errors_total(basis),
                                        nu, cfg.p_nu, eps_sf, upper=True)
            deviation = math.sqrt(n_total / 2 * -math.log(eps_sf))
            s0_u = raw[f"s_{basis}0_u"] = 2 * (t0 * m_nu_high + deviation)
            s0_u = min(s0_u, float(n_total))
            bracket = (n_nu_low - (nu ** 2 / mu ** 2) * n_mu_high
                       - ((mu ** 2 - nu ** 2) / mu ** 2) * (s0_u / t0))
            s1_l = raw[f"s_{basis}1_l"] = (t1 * mu / (nu * (mu - nu))
                                           * bracket)
            s1_l = min(max(s1_l, 0.0), float(n_total))
            per_basis[basis] = n_nu_low, n_mu_high, s0_u, s1_l
        n_nu_low, n_mu_high, s_z0_u, s_z1_l = per_basis["z"]
        s_x1_l = per_basis["x"][3]
        m_x_total = tally.errors_total("x")
        m_mu_high = hoeffding_shift(tally.m_x_mu, m_x_total,
                                    mu, cfg.p_mu, eps_sf, upper=True)
        m_nu_low = hoeffding_shift(tally.m_x_nu, m_x_total,
                                   nu, cfg.p_nu, eps_sf, upper=False)
        raw["v_x1_u"] = t1 * (m_mu_high - m_nu_low) / (mu - nu)
        raw["s_z0_l"] = t0 * (mu * n_nu_low - nu * n_mu_high) / (mu - nu)
        for name, value in raw.items():
            if not math.isfinite(value):
                raise InsufficientDataError(
                    f"{name} is {value} before its clamp")
        v_x1_u = max(raw["v_x1_u"], 0.0)
        phi_z_u = phase_error_upper(s_z1_l, s_x1_l, v_x1_u, eps_sf)
    except (OverflowError, ZeroDivisionError) as exc:
        raise InsufficientDataError(
            f"link bounds out of float range: {exc}") from None
    return LinkBounds(
        tau0=t0, tau1=t1, s_z0_l=max(raw["s_z0_l"], 0.0),
        s_z0_u=s_z0_u, s_z1_l=s_z1_l, s_x1_l=s_x1_l, v_x1_u=v_x1_u,
        phi_z_u=phi_z_u, e_z=tally.e_z, lambda_ec=targets.lambda_ec_bits,
        n_z=tally.n_z_total, time_s=tally.accumulation_time_s)


def signature_rate(n_z: int, length: int, time_s: float) -> float:
    """Signatures per second: each signature consumes 2L bits per key."""
    if time_s <= 0:
        raise ValueError("accumulation time must be positive")
    if length <= 0:
        raise ValueError("signature length must be positive")
    return n_z / (2 * length * time_s)


def _entropy_at(bounds: LinkBounds, length: int,
                targets: SecurityTargets) -> float:
    """Smooth min-entropy of a random L-bit substring of the Z key.

    The whole-key vacuum and single-photon lower bounds and the phase
    error bound transfer onto the substring, each paying one gamma_upper
    sampling penalty.  Vacuum bits are fully unpredictable, single-photon
    bits lose the phase-error entropy, and the substring's share of the
    reconciliation leakage (plus the verification tag) is subtracted.
    """
    n_z, eps_sf = bounds.n_z, targets.eps_sf
    if not 0 < length < n_z:
        raise ValueError("substring length must be in (0, n_z)")
    lam0, lam1 = bounds.s_z0_l / n_z, bounds.s_z1_l / n_z
    s0_L = length * (lam0 - gamma_upper(length, n_z - length, eps_sf, lam0))
    s0_L = min(max(s0_L, 0.0), float(length))
    s1_L = length * (lam1 - gamma_upper(length, n_z - length, eps_sf, lam1))
    s1_L = min(max(s1_L, 0.0), float(length))
    rest = bounds.s_z1_l - s1_L
    if s1_L <= 0 or rest <= 0:
        phi_L = 0.5
    else:
        phi_L = bounds.phi_z_u + gamma_upper(s1_L, rest, eps_sf,
                                             bounds.phi_z_u)
        phi_L = min(max(phi_L, 0.0), 0.5)
    leak_share = length / n_z * (bounds.lambda_ec
                                 + math.log2(2 / targets.eps_cor))
    return s0_L + s1_L * (1 - binary_entropy(phi_L)) - leak_share


def _entropy_rate(bounds: LinkBounds, targets: SecurityTargets) -> float:
    """r with _entropy_at(bounds, L, targets) <= r * L at every L.

    gamma_upper >= 0, s0_L and s1_L lie in [0, L], h(phi_L) >= h(phi_z_u)
    and the leakage share is linear in L; r is padded by 1e-9 of the
    terms' size, at most (4 - r) L, against float rounding.
    """
    n_z = bounds.n_z
    rate = (min(bounds.s_z0_l / n_z, 1.0) + min(bounds.s_z1_l / n_z, 1.0)
            * (1 - binary_entropy(bounds.phi_z_u))
            - (bounds.lambda_ec + math.log2(2 / targets.eps_cor)) / n_z)
    return rate + 1e-9 * (4 - rate)


def report_at_length(tally: DetectionTally, cfg: IntensityConfig,
                     targets: SecurityTargets, length: int,
                     bounds: LinkBounds | None = None) -> SecurityReport:
    """Evaluate the full chain at one fixed substring length."""
    if length < 8 or length % 8:
        raise ValueError("signature length must be a positive multiple of 8")
    if bounds is None:
        bounds = link_bounds(tally, cfg, targets)
    h_n = _entropy_at(bounds, length, targets)
    eps_rob, eps_rep, eps_for, eps = security_bounds(
        h_n, targets.message_len_bits, targets.eps_cor)
    return SecurityReport(
        tau0=bounds.tau0, tau1=bounds.tau1,
        s_z0_l=bounds.s_z0_l, s_z1_l=bounds.s_z1_l, s_z0_u=bounds.s_z0_u,
        s_x1_l=bounds.s_x1_l, v_x1_u=bounds.v_x1_u, phi_z_u=bounds.phi_z_u,
        e_z=bounds.e_z, h_min_per_L=h_n,
        eps_rob=eps_rob, eps_rep=eps_rep, eps_for=eps_for, eps=eps,
        signature_len_bits=length,
        signature_rate_tps=signature_rate(bounds.n_z, length, bounds.time_s),
    )


def min_signature_length(tally: DetectionTally, cfg: IntensityConfig,
                         targets: SecurityTargets
                         ) -> tuple[int, SecurityReport]:
    """Smallest substring length whose total failure bound meets the target.

    Lengths are multiples of 8 so signatures are whole bytes; the scan
    runs up to n_z / 2 because one signature consumes 2L bits.  Raises
    LinkInsecureError (carrying the best achievable bound) when no
    length qualifies, and InsufficientDataError when the single-photon
    bounds collapse entirely.  eps(L) >= (m / 8) 2^(1 - r L) for r from
    _entropy_rate; when r <= 0 that floor only grows, so the scan stops
    once it passes the best eps seen, as no later length can win.
    """
    bounds = link_bounds(tally, cfg, targets)
    if 2 * targets.eps_cor > targets.eps_target:
        raise LinkInsecureError(
            "robustness floor 2*eps_cor exceeds the target", 2 * targets.eps_cor, None)
    best_eps = math.inf
    best_len: int | None = None
    rate = _entropy_rate(bounds, targets)
    stop = bounds.n_z // 2
    if rate < 0:    # past L = 1023 / -r, h_n <= r L makes eps overflow to inf
        stop = int(min(stop, 1023 / -rate + 8))
    for length in range(8, stop + 1, 8):
        h_n = _entropy_at(bounds, length, targets)
        eps = security_bounds(h_n, targets.message_len_bits, targets.eps_cor)[3]
        if eps < best_eps:
            best_eps, best_len = eps, length
        if eps <= targets.eps_target:
            report = report_at_length(tally, cfg, targets, length,
                                      bounds=bounds)
            return length, report
        if rate <= 0 and (math.log2(targets.message_len_bits / 4)
                          - rate * length > math.log2(best_eps)):
            break
    raise LinkInsecureError(
        f"no substring length reaches eps <= {targets.eps_target:g} "
        f"(best {best_eps:g} at L = {best_len})", best_eps, best_len)
