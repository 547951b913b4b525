"""Link SNRs, rates, utilities, and per-pair rate floors.

Index conventions: per-pair matrices are [l, q] with l the licensed (PU)
pair and q the relay (SU) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)

# stratified samples per partial-knowledge expectation
PARTIAL_SAMPLES = 256
PARTIAL_ROWS_PER_BLOCK = 4   # licensed rows per [rows, q, PARTIAL_SAMPLES] pass


def log2_1p(x, out=None):
    """log2(1 + x) through log1p, so tiny SNRs do not lose precision. The
    division runs in place on log1p's result, or on out when given."""
    out = np.log1p(x, out=out)
    out /= _LN2
    return out


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def af_relay_snr(gamma_first, gamma_second, formula):
    """Composite receive SNR of an amplify-and-forward two-hop link.

    `formula` selects the closed form: "paper" uses the product-saturation
    form x/(x+1) with x the product of the hop SNRs, "standard" the usual
    g1*g2/(g1+g2+1). Both are supported because they disagree noticeably
    at high SNR while leaving the negotiation mechanics untouched. The
    quotient is taken in place on the fresh numerator.
    """
    g1 = np.asarray(gamma_first, dtype=float)
    g2 = np.asarray(gamma_second, dtype=float)
    if formula == "paper":
        snr = g1 * g2
        snr /= snr + 1.0
    elif formula == "standard":
        snr = g1 * g2
        den = g1 + g2
        den += 1.0
        snr /= den
    else:
        raise ValueError(f"unknown af formula {formula!r}")
    return snr


def link_snr(h2, gain, distance, alpha):
    """gain * h2 / distance ** alpha, the receive SNR of links with squared
    fading gains h2 at transmit SNR gain, in place: h2 becomes the SNR and
    distance (which broadcasts against h2) its path loss. The operations
    are the expression's, in its order, so the SNR is the same bit for bit.
    It checks nothing: topology.draw_channels rejects a draw whose kept
    SNRs are not finite.
    """
    h2 *= gain
    distance **= alpha
    h2 /= distance
    return h2


# ---------------------------------------------------------------------------
# partial knowledge

def mean_relay_log_terms(gamma_dir, gamma_first_hop, mean_forward_gain, formula, streams):
    """Average log2(1 + direct + relayed) over the unknown forward-hop
    fading of every pair: [l, q] from gamma_dir [l], the first-hop SNRs
    [l, q] and the forward-hop mean gains [l, q]. Each array pass covers
    PARTIAL_ROWS_PER_BLOCK licensed rows, [rows, q, PARTIAL_SAMPLES], so
    memory stays flat in the number of licensed users; a pair's mean does
    not depend on the block it is in.

    The forward hop's squared gain is exponential with unit mean and known
    average path gain. Each pair draws its stratified uniforms from its own
    generator, streams in row-major pair order, into its row of one draw
    block allocated once per call. Stratification keeps the estimator's
    error well under a plain Monte Carlo draw at the same sample count. The
    mean is add.reduce over the samples divided by their count, the sum
    np.mean takes.
    """
    n = PARTIAL_SAMPLES
    l_su = gamma_first_hop.shape[1]
    out = np.empty(gamma_first_hop.shape)
    block_draws = np.empty((PARTIAL_ROWS_PER_BLOCK * l_su, n))
    for lo in range(0, len(gamma_dir), PARTIAL_ROWS_PER_BLOCK):
        rows = slice(lo, lo + PARTIAL_ROWS_PER_BLOCK)
        block = streams[lo * l_su:(lo + PARTIAL_ROWS_PER_BLOCK) * l_su]
        draws = block_draws[:len(block)]
        for rng, row in zip(block, draws):
            rng.random(out=row)
        u = (np.arange(n) + draws.reshape(-1, l_su, n)) / n
        h2 = -np.log1p(-u)
        relayed = af_relay_snr(gamma_first_hop[rows, :, None],
                               mean_forward_gain[rows, :, None] * h2, formula)
        log_terms = log2_1p(gamma_dir[rows, None, None] + relayed)
        out[rows] = np.add.reduce(log_terms, axis=-1) / n
    return out


# ---------------------------------------------------------------------------
# rates and utilities, as used by the engine, baselines, and checks

@dataclass(frozen=True)
class PairRates:
    """Per-pair slopes of rates and utilities in (xi, beta), and the one
    array spelling of each side of a trade on them: licensed and relay.

    pu_coef[l, q] is the licensed rate per unit beta (already including the
    two-phase half), su_coef[l, q] the relay rate per unit (1 - beta).
    Under partial knowledge pu_coef holds the expected slope the licensed
    side negotiates with; su_coef is always instantaneous.
    """
    pu_coef: np.ndarray
    su_coef: np.ndarray
    c_cost: float   # money slope of the licensed utility
    k_cost: float   # money slope of the relay utility

    def licensed(self, beta, xi, l=slice(None), q=slice(None)):
        """Licensed (rate, utility) of pairs (l, q), every pair when none is
        named, at time share beta and price xi. Broadcasts."""
        rate = self.pu_coef[l, q] * beta
        return rate, rate + self.c_cost * xi

    def relay(self, beta, xi, l=slice(None), q=slice(None)):
        """Relay (rate, utility) of pairs (l, q), every pair when none is
        named, at time share beta and price xi. Broadcasts."""
        rate = self.su_coef[l, q] * (1.0 - beta)
        return rate, rate - self.k_cost * xi


def licensed_slopes(params, realization):
    """PairRates.pu_coef [l, q]: the licensed rate per unit time share under
    params.snr_knowledge."""
    if params.snr_knowledge == "complete":
        # 0.5 * t_frame * log2_1p(gamma_dir + gamma_relay), each operation in
        # its order, in place on the one fresh [l, q] array the sum makes
        pu_coef = realization.gamma_dir[:, None] + realization.gamma_relay
        log2_1p(pu_coef, out=pu_coef)
        pu_coef *= 0.5 * params.t_frame
        return pu_coef
    if realization.partial_mean_log is None:
        raise ValueError("realization carries no partial-knowledge rate estimates")
    return 0.5 * params.t_frame * realization.partial_mean_log


def make_pair_rates(params, realization):
    """Rate and utility slopes of every pair under params.snr_knowledge."""
    pu_coef = licensed_slopes(params, realization)
    su_coef = log2_1p(realization.gamma_sr)
    su_coef *= params.t_frame
    return PairRates(
        pu_coef=pu_coef,
        su_coef=su_coef,
        c_cost=params.c_bar * params.capital_c,
        k_cost=params.k_bar * params.capital_c,
    )


def licensed_gain(rates, requirements, l, q, u_pu, beta, xi):
    """The licensed half of a trade: at time share beta and price xi pair
    (l, q) meets the licensed floor and gives more than u_pu. Broadcasts;
    along the falling time grid it holds on a prefix of the indices."""
    pu_rate, u = rates.licensed(beta, xi, l, q)
    return (pu_rate >= requirements.r_pu_req[l]) & (u > u_pu)


def relay_gain(rates, requirements, l, q, bar, beta, xi):
    """The relay half of a trade: at time share beta and price xi pair
    (l, q) meets the relay floor and leaves the relay a nonnegative utility
    above bar. Broadcasts; slopes and money weights are at least 0 and
    rounding is monotone, so along the falling time grid it holds on a
    suffix of the indices."""
    su_rate, u_su = rates.relay(beta, xi, l, q)
    return (su_rate >= requirements.r_su_req) & (u_su >= 0.0) & (u_su > bar)


def _relay_open_guess(rates, requirements, l, q, bar, betas, xi):
    """open_trades' first relay-open index up to rounding: the first time
    share at most relay_ceiling_share of the relay floor raised to what
    the bar and a zero utility ask. A wrong guess (an exact tie) costs
    time only."""
    floor = np.maximum(requirements.r_su_req, rates.k_cost * xi + np.maximum(bar, 0.0))
    return (-betas).searchsorted(-relay_ceiling_share(floor, rates.su_coef[l, q]))


def open_trades(rates, requirements, l, q, bar, betas, xi, lo):
    """The best trade the relay takes, per row of l, q, bar, xi and lo
    broadcast together: (j, u) on the falling time grid betas.

    relay_gain holds on a suffix of the grid, the licensed floor on a
    prefix, and the licensed utility falls along it. So from time index lo
    on, the trades that relay_gain and the licensed floor both pass run
    from j, the first index >= lo where relay_gain holds (len(betas) if
    none), to the end of the floor's prefix, and the best of them for the
    licensed side is at j. u is its licensed utility, minus infinity where
    j is len(betas) or the floor misses at j.

    The first relay-open index is guessed (_relay_open_guess); a guess j
    is exact iff relay_gain holds at j and not at j - 1, and only the rows
    that fail this check are recomputed over the whole grid.
    """
    n_beta = len(betas)
    # an array even when every row argument is a scalar, so the misses can be written back
    j = np.asarray(_relay_open_guess(rates, requirements, l, q, bar, betas, xi))
    # j - 1 and j in one call; indices clipped into the grid at either end are masked
    before, at = relay_gain(rates, requirements, l, q, bar,
                            betas.take(np.add.outer((-1, 0), j), mode="clip"), xi)
    miss = (before & (j > 0)) | ~(at | (j == n_beta))
    if miss.any():
        ml, mq, mbar, mxi = (np.broadcast_to(a, j.shape)[miss][:, None]
                             for a in (l, q, bar, xi))
        full = relay_gain(rates, requirements, ml, mq, mbar, betas, mxi)
        j[miss] = np.where(full.any(axis=1), full.argmax(axis=1), n_beta)
    j = np.maximum(j, lo)
    pu_rate, u = rates.licensed(betas.take(j, mode="clip"), xi, l, q)
    return j, np.where((j < n_beta) & (pu_rate >= requirements.r_pu_req[l]), u, -np.inf)


def licensed_floor_share(r_pu, coef):
    """The smallest time share at which licensed slope coef meets floor
    r_pu, at least 0: r_pu / coef for a positive slope. A zero slope meets
    its floor everywhere when the floor is not positive (0) and nowhere
    otherwise (inf). Broadcasts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(coef > 0.0, r_pu / coef, np.where(r_pu <= 0.0, 0.0, np.inf))
    return np.maximum(lo, 0.0)


def relay_ceiling_share(r_su, coef):
    """The largest time share at which relay slope coef meets floor r_su,
    at most 1, the twin of licensed_floor_share: 1 - r_su / coef for a
    positive slope. A zero slope meets its floor everywhere when the floor
    is not positive (1: fmin drops the nan of 0 / 0) and nowhere otherwise
    (-inf). Broadcasts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(1.0 - r_su / coef, 1.0)


def beta_interval(rates, requirements):
    """Feasible time shares of every pair: (lo, hi), both [l, q].

    beta in [lo, hi] meets the licensed floor (pu_coef * beta, lo by
    licensed_floor_share) and the relay floor (su_coef * (1 - beta), hi
    by relay_ceiling_share) inside [0, 1]; lo > hi when no beta does.
    """
    return (licensed_floor_share(requirements.r_pu_req[:, None], rates.pu_coef),
            relay_ceiling_share(requirements.r_su_req, rates.su_coef))


# ---------------------------------------------------------------------------
# rate floors

@dataclass(frozen=True)
class Requirements:
    r_pu_req: np.ndarray   # per licensed pair
    r_su_req: float


def requirements_for(params, realization):
    """Rate floors for one realization. Licensed floors are params.r_pu_req
    when set and otherwise the rate each pair already gets over its direct
    link, so relaying must not hurt."""
    if params.r_pu_req is None:
        floors = params.t_frame * log2_1p(realization.gamma_dir)
    else:   # ScenarioParams checked one finite positive floor per pair
        floors = params.r_pu_req
    return Requirements(r_pu_req=np.asarray(floors, dtype=float),
                        r_su_req=float(params.r_su_req))
