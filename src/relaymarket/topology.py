"""Scenario parameters, user placement, and block-fading channel draws.

Geometry: licensed transmitters sit on the left edge of the outer square
[-1, 1]^2 and their receivers directly opposite on the right edge, so every
licensed hop has length exactly 2. Relay pairs land i.i.d. uniformly in the
inner square [-0.5, 0.5]^2. Channels are Rayleigh, i.e. squared gains are
unit-mean exponentials, redrawn fresh per trial and constant within it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import radio

@dataclass(frozen=True)
class ScenarioParams:
    l_pu: int = 2
    l_su: int = 6
    gamma_pu_db: float = 5.0        # licensed transmit SNR in dB
    gamma_su_db: float = 25.0       # relay transmit SNR in dB
    alpha: float = 4.0              # path-loss exponent
    t_frame: float = 1.0
    capital_c: float = 1.0          # relay-side budget per frame
    c_bar: float = 1.0              # licensed rate-per-money weight
    k_bar: float = 1.0              # relay rate-per-money weight
    r_su_req: float = 0.1
    r_pu_req: tuple | None = None   # None: each pair's direct-link rate
    xi_init: float = 0.99
    beta_init: float = 0.99
    delta: float = 0.05             # price concession step
    epsilon: float = 0.05           # time-slot concession step
    snr_knowledge: str = "complete"     # or "partial"
    af_formula: str = "paper"           # or "standard"
    negotiation: str = "ladder"         # or "contracts"
    seed: int = 0

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not _finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            # a numpy float32 weight would run the rate algebra in float32
            object.__setattr__(self, name, float(value))
        if self.l_pu < 1 or self.l_su < 1:
            raise ValueError("need at least one pair on each side")
        if not (0.0 < self.xi_init <= 1.0 and 0.0 < self.beta_init <= 1.0):
            raise ValueError("xi_init and beta_init must lie in (0, 1]")
        if not (0.0 < self.delta <= self.xi_init):
            raise ValueError("delta must lie in (0, xi_init]")
        if not (0.0 < self.epsilon <= self.beta_init):
            raise ValueError("epsilon must lie in (0, beta_init]")
        for name in ("gamma_pu_db", "gamma_su_db"):
            if not _finite_positive_power(getattr(self, name)):
                raise ValueError(f"{name} must give a finite positive linear power, "
                                 f"got {getattr(self, name)!r} dB")
        if self.alpha <= 0.0 or self.t_frame <= 0.0:
            raise ValueError("alpha and t_frame must be positive")
        if self.capital_c < 0.0 or self.c_bar < 0.0 or self.k_bar < 0.0:
            raise ValueError("monetary weights must be nonnegative")
        if self.r_su_req < 0.0:
            raise ValueError("r_su_req must be nonnegative")
        if self.snr_knowledge not in ("complete", "partial"):
            raise ValueError(f"unknown snr_knowledge {self.snr_knowledge!r}")
        if self.af_formula not in ("paper", "standard"):
            raise ValueError(f"unknown af_formula {self.af_formula!r}")
        if self.negotiation not in ("ladder", "contracts"):
            raise ValueError(f"unknown negotiation {self.negotiation!r}")
        if self.r_pu_req is not None and (
                not isinstance(self.r_pu_req, tuple)
                or len(self.r_pu_req) != self.l_pu
                or not all(_finite_number(v) and v > 0 for v in self.r_pu_req)):
            raise ValueError(f"r_pu_req must list {self.l_pu} finite positive numbers, "
                             f"one per licensed pair, got {self.r_pu_req!r}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def _finite_number(value):
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating))
            and math.isfinite(value))


def _finite_positive_power(db):
    """Whether 10 ** (db / 10) is a finite positive float: it overflows
    above about 3082 dB and underflows to 0 below about -3236 dB."""
    try:
        return 10.0 ** (db / 10.0) > 0.0
    except OverflowError:
        return False


_INT_FIELDS = tuple(f.name for f in fields(ScenarioParams) if f.type == "int")
_FLOAT_FIELDS = tuple(f.name for f in fields(ScenarioParams) if f.type == "float")


def params_from_dict(d):
    unknown = set(d) - {f.name for f in fields(ScenarioParams)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(d.get("r_pu_req"), list):
        d = {**d, "r_pu_req": tuple(d["r_pu_req"])}
    return ScenarioParams(**d)


@dataclass(frozen=True)
class Placement:
    pt_pos: np.ndarray   # [l, 2]
    pr_pos: np.ndarray   # [l, 2]
    st_pos: np.ndarray   # [q, 2]
    sr_pos: np.ndarray   # [q, 2]


def place_users(params, rng):
    """Drop all pairs for one trial; redraws if a relay pair lands on itself."""
    while True:
        y = rng.uniform(-1.0, 1.0, params.l_pu)
        pt = np.empty((params.l_pu, 2))
        pr = np.empty((params.l_pu, 2))
        pt[:, 0] = -1.0
        pr[:, 0] = 1.0
        pt[:, 1] = pr[:, 1] = y
        st = rng.uniform(-0.5, 0.5, (params.l_su, 2))
        sr = rng.uniform(-0.5, 0.5, (params.l_su, 2))
        # only the relay pair's own hop can degenerate; every cross-square
        # distance is at least 0.5 by construction
        if _distance(st, sr).min() >= 1e-6:
            return Placement(pt_pos=pt, pr_pos=pr, st_pos=st, sr_pos=sr)


def _distance(a, b):
    """Euclidean distance between points [..., 2], broadcast: what
    np.linalg.norm(a - b, axis=-1) gives bit for bit (its sum of squares
    over two entries is one addition), in place on the two differences."""
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


@dataclass
class ChannelRealization:
    """One trial's draw: its placement and the SNRs the floors and rates read."""
    placement: Placement
    gamma_dir: np.ndarray     # [l] direct licensed link
    gamma_relay: np.ndarray   # [l, q] composite relayed-copy SNR
    gamma_sr: np.ndarray      # [l, q] relay pair q's own link in band l
    # filled under partial knowledge: per-pair mean log term the licensed
    # side negotiates with when the relay's forward hop is unknown
    partial_mean_log: np.ndarray | None = None


def draw_channels(params, placement, rng):
    """Draw every link's squared fading gain and keep the SNRs it gives.

    Squared gains are -ln(u) with u uniform on (0, 1], i.e. exponential
    with unit mean, drawn in the order direct, transmitter-to-relay,
    relay-to-receiver, relay pair. Each draw becomes its SNR in place
    (radio.link_snr), over distances from _distance on [l, q] broadcasts
    for the cross links, and the two hop SNRs are released once they have
    given the composite relayed SNR. Under partial knowledge the
    realization also gets the per-pair expected log terms from
    radio.mean_relay_log_terms, with one substream per pair in row-major
    order, so each estimate is reproducible pair by pair. The substreams
    are the generators rng.spawn would give, derived by spawn_generators
    from rng's seed sequence in one array pass; this draws nothing from
    rng and, unlike rng.spawn, leaves the sequence's spawn counter (which
    only numpy can write) where it was. The arithmetic runs with numpy's
    overflow, invalid and divide warnings off; a kept array that is not
    finite, as when huge transmit SNRs overflow a hop product, raises
    ValueError instead.
    """
    l_pu, l_su = params.l_pu, params.l_su
    g_pt = float(radio.db_to_linear(params.gamma_pu_db))
    g_st = float(radio.db_to_linear(params.gamma_su_db))
    pt, pr, st = placement.pt_pos, placement.pr_pos, placement.st_pos

    def snr(shape, gain, distance):
        h2 = rng.random(shape)
        np.negative(h2, out=h2)
        np.log1p(h2, out=h2)
        np.negative(h2, out=h2)
        return radio.link_snr(h2, gain, distance, params.alpha)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma_dir = snr(l_pu, g_pt, _distance(pt, pr))
        gamma_pt_st = snr((l_pu, l_su), g_pt, _distance(pt[:, None], st[None]))
        d_st_pr = _distance(pr[:, None], st[None])
        partial_mean_log = None
        if params.snr_knowledge == "partial":
            # Python-float powers: numpy's array ** differs from them in the last bit
            # on some pairs, and the recorded partial-knowledge digests rest on them
            forward_gain = g_st / (d_st_pr.astype(object) ** params.alpha).astype(float)
            partial_mean_log = radio.mean_relay_log_terms(
                gamma_dir, gamma_pt_st, forward_gain, params.af_formula,
                spawn_generators(rng, l_pu * l_su))
        gamma_st_pr = snr((l_pu, l_su), g_st, d_st_pr)
        del d_st_pr   # its buffer holds the path loss now
        # drawn [q, l], one relay pair's bands per row, and kept as its [l, q] view
        gamma_sr = snr((l_su, l_pu), g_st, _distance(st, placement.sr_pos)[:, None]).T
        gamma_relay = radio.af_relay_snr(gamma_pt_st, gamma_st_pr, params.af_formula)
    if not all(np.isfinite(a).all() for a in (gamma_dir, gamma_relay, gamma_sr, partial_mean_log)
               if a is not None):
        raise ValueError("non-finite channel realization rejected")
    return ChannelRealization(placement, gamma_dir, gamma_relay, gamma_sr, partial_mean_log)


# numpy's SeedSequence hash constants (NEP 19 keeps its algorithm stable)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# generate_state's running constants over PCG64's eight seed words
_STATE_CONSTS = np.array([_INIT_B * _MULT_B ** k & _MASK32 for k in range(9)], dtype=np.uint32)


def spawn_generators(rng, n):
    """rng.spawn(n) as the same generators bit for bit, without building
    its n child SeedSequences. rng must be a PCG64 generator on a
    SeedSequence (TypeError otherwise); its spawn counter is read, not
    advanced. The children draw as rng.spawn's do but cannot spawn.

    SeedSequence hashes a child's words (rng's entropy, zero-padded to the
    pool size, its spawn key, then the child index) into a pool, and
    generate_state hashes the pool into PCG64's four-word seed. Only the
    last word differs between children, so the hash of the shared words
    runs once on Python ints and the rest as uint32 arrays [n, ...].
    """
    bit_generator = rng.bit_generator
    seq = bit_generator.seed_seq
    if not (isinstance(bit_generator, np.random.PCG64)
            and isinstance(seq, np.random.SeedSequence)):
        raise TypeError("spawn_generators needs a PCG64 generator on a SeedSequence, "
                        f"got {type(bit_generator).__name__} on {type(seq).__name__}")
    first = seq.n_children_spawned
    if first + n > _MASK32:
        # numpy counts child indices in a uint32 that never reaches a stop of 2**32
        raise ValueError("rng.spawn gives no child index past 2**32 - 2")
    size = seq.pool_size
    words = _uint32_words(seq.entropy)
    words += [0] * (size - len(words)) + _uint32_words(seq.spawn_key)
    # len(words) + 1 words hashed into each of size pool words, the first
    # size of them straight in: one constant per hash and one to follow
    c = [_INIT_A]
    for _ in range((len(words) + 1) * size):
        c.append(c[-1] * _MULT_A & _MASK32)
    pool = [_hash(w, c[k], c[k + 1]) for k, w in enumerate(words[:size])]
    k = size
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], c[k], c[k + 1]))
                k += 1
    for w in words[size:]:
        for dst in range(size):
            pool[dst] = _mix(pool[dst], _hash(w, c[k], c[k + 1]))
            k += 1
    # offset from 0, not arange(first, first + n): a uint32 stop of 2**32 never ends
    index = np.arange(n, dtype=np.uint32)[:, None] + np.uint32(first)
    c = np.array(c[k:], dtype=np.uint32)
    pools = _mix(np.array(pool, dtype=np.uint32), _hash(index, c[:-1], c[1:]))
    # generate_state(4, uint64): eight words cycling over the pool
    state = _hash(pools.take(np.arange(8) % size, axis=1), _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    seeds = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    seeded = _seeded_state()
    return [np.random.Generator(np.random.PCG64(seeded(row))) for row in seeds]


def _uint32_words(value):
    """SeedSequence's words of an entropy or spawn key: an int's 32-bit
    words, least significant first (0 is one word; a string is read as a
    decimal or 0x-prefixed hex int), or a sequence's items' words in
    order."""
    if isinstance(value, str):
        value = int(value, 16) if value.startswith("0x") else int(value)
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [w for item in value for w in _uint32_words(item)]


def _hash(value, const, mult):
    """SeedSequence's hash of a word under the running constant const,
    mult being the constant after it. Ints or uint32 arrays."""
    value = (value ^ const) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y. Ints or
    uint32 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


@functools.cache
def _seeded_state():
    """The seed sequence that hands PCG64 one precomputed state. Built on
    first use: numpy.random.bit_generator loads Cython runtime modules,
    which import relaymarket leaves out."""
    from numpy.random.bit_generator import ISeedSequence

    class SeededState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return SeededState


def make_realization(params, seed_seq):
    """Placement plus channels from one seed; accepts an int or SeedSequence.

    Trial i of a run with master seed s is built from
    SeedSequence([s, i]). Placement and channels take the next two
    children it spawns, the first two of a fresh sequence, so one sequence
    passed twice gives two different draws. A caller needing another
    stream for the same trial (the random baseline) spawns the next one
    from the same sequence.
    """
    if isinstance(seed_seq, (int, np.integer)):
        seed_seq = np.random.SeedSequence(seed_seq)
    place_ss, chan_ss = seed_seq.spawn(2)
    placement = place_users(params, np.random.default_rng(place_ss))
    return draw_channels(params, placement, np.random.default_rng(chan_ss))
