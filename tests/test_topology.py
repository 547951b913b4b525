"""Scenario configuration, user placement, and channel draws."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from relaymarket import dda, radio, topology

from helpers import GOLDEN_MARKETS
from oracles import reference_draw


class TestParams:
    def test_defaults(self):
        p = topology.params_from_dict({})
        assert p.l_pu == 2
        assert p.l_su == 6
        assert p.xi_init == p.beta_init == 0.99
        assert p.delta == p.epsilon == 0.05
        assert p.af_formula == "paper"
        assert p.snr_knowledge == "complete"
        assert p.r_pu_req is None
        assert p.negotiation == "ladder"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            topology.params_from_dict({"l_puu": 3})

    def test_unknown_negotiation_rejected(self):
        assert topology.params_from_dict(
            {"negotiation": "contracts"}).negotiation == "contracts"
        with pytest.raises(ValueError, match="negotiation"):
            topology.params_from_dict({"negotiation": "auction"})

    def test_time_split_is_pinned(self):
        # the rates hard-code the equal two-phase split; there is no key
        with pytest.raises(ValueError, match="unknown config keys"):
            topology.params_from_dict({"tau": 0.4})

    @pytest.mark.parametrize("overrides", [
        {"delta": 0.0},
        {"delta": 1.5},
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"l_pu": 0},
        {"seed": -1},
    ])
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            topology.params_from_dict(overrides)

    @pytest.mark.parametrize("overrides", [
        {"l_su": 2.5},
        {"l_pu": True},
        {"seed": "3"},
        {"alpha": "4"},
        {"c_bar": float("nan")},
        {"t_frame": float("inf")},
        {"gamma_su_db": True},
        {"r_su_req": None},
        {"r_pu_req": [0.2, float("nan")]},
        {"r_pu_req": [0.2]},
        {"r_pu_req": ["a", "b"]},
        {"r_pu_req": [0.2, True]},
        {"r_pu_req": [0.0, 0.2]},
        {"r_pu_req": [-1.0, 0.2]},
    ])
    def test_ill_typed_values_rejected(self, overrides):
        (name, _), = overrides.items()
        with pytest.raises(ValueError, match=name):
            topology.params_from_dict(overrides)

    @pytest.mark.parametrize("overrides", [
        {"gamma_su_db": 4000.0},
        {"gamma_pu_db": 4000.0},
        {"gamma_su_db": -3300.0},
        {"gamma_pu_db": -3300.0},
    ])
    def test_transmit_power_must_be_finite_and_positive(self, overrides):
        # 10 ** (dB / 10) overflows to inf above about 3082 dB and
        # underflows to 0 below about -3236 dB; an infinite transmit SNR
        # used to crash the engine mid-run
        (name, db), = overrides.items()
        with pytest.raises(ValueError, match=name):
            topology.params_from_dict(overrides)
        # near the edge, exactly the values whose linear power the draw
        # takes as finite and positive are accepted
        edge = 3082.547 if db > 0 else -3236.07
        for value in np.linspace(edge - 0.01, edge + 0.01, 41).tolist():
            with np.errstate(over="ignore", under="ignore"):
                power = radio.db_to_linear(value)
            try:
                topology.params_from_dict({name: value})
            except ValueError:
                assert not 0.0 < power < np.inf, value
            else:
                assert 0.0 < power < np.inf, value

    def test_python_and_numpy_numbers_accepted(self):
        p = topology.params_from_dict({
            "l_su": np.int64(3), "seed": np.uint32(4), "alpha": np.float32(3.5),
            "c_bar": 2, "epsilon": np.float64(0.1)})
        assert (p.l_su, p.seed, p.alpha, p.c_bar, p.epsilon) == (3, 4, 3.5, 2, 0.1)

    @pytest.mark.parametrize("name", ["c_bar", "capital_c", "k_bar"])
    def test_float32_money_weights_run_in_float64(self, name):
        # each float field is stored as a Python float, so a float32 weight
        # cannot pull the engine's money terms down to float32
        weight = np.float32(0.3)
        p32 = topology.params_from_dict({name: weight})
        p64 = topology.params_from_dict({name: float(weight)})
        assert type(getattr(p32, name)) is float and p32 == p64
        real = topology.make_realization(p32, 0)
        s32, s64 = dda.init_state(dda.market(p32, real)), dda.init_state(dda.market(p64, real))
        _, xi, _ = offer = s32.offer(0)
        assert offer == s64.offer(0)
        # float() so that a float32 product is not compared in float32
        rates = s32.market.rates
        assert float(rates.c_cost * xi) == p64.c_bar * p64.capital_c * xi
        assert float(rates.k_cost * xi) == p64.k_bar * p64.capital_c * xi
        for state in (s32, s64):
            while state.queue:
                dda.step(state)
        held = [h for h in s32.accepted if h is not None]
        assert held and s32.accepted == s64.accepted
        assert all(type(u_su) is float for *_, u_su in held)

    def test_explicit_floors_become_tuple(self):
        p = topology.params_from_dict({"r_pu_req": [0.2, 0.3]})
        assert p.r_pu_req == (0.2, 0.3)


class TestPlacement:
    def test_geometry(self, default_params):
        rng = np.random.default_rng(3)
        pl = topology.place_users(default_params, rng)
        assert np.all(pl.pt_pos[:, 0] == -1.0)
        assert np.all(pl.pr_pos[:, 0] == 1.0)
        # transmitter and receiver of a licensed pair share their height
        assert np.array_equal(pl.pt_pos[:, 1], pl.pr_pos[:, 1])
        assert np.all(np.abs(pl.pt_pos[:, 1]) <= 1.0)
        for arr in (pl.st_pos, pl.sr_pos):
            assert arr.shape == (default_params.l_su, 2)
            assert np.all(np.abs(arr) <= 0.5)

    def test_relay_pairs_never_coincide(self, default_params):
        for s in range(50):
            pl = topology.place_users(default_params, np.random.default_rng(s))
            gaps = np.linalg.norm(pl.st_pos - pl.sr_pos, axis=1)
            assert np.min(gaps) >= 1e-6

    def test_a_relay_pair_exactly_at_the_separation_floor_is_kept(self):
        # scripted draws: the first relay pair lies 1e-6 apart and is kept,
        # the second lies closer and is redrawn as the third
        params = topology.params_from_dict({"l_pu": 1, "l_su": 1})

        class Scripted:
            def __init__(self, draws):
                self.draws = iter(draws)

            def uniform(self, lo, hi, shape):
                return np.reshape(next(self.draws), shape)

        pl = topology.place_users(params, Scripted([[0.0], [[0.0, 0.0]], [[1e-6, 0.0]]]))
        assert pl.sr_pos.tolist() == [[1e-6, 0.0]]
        pl = topology.place_users(params, Scripted([[0.0], [[0.0, 0.0]], [[5e-7, 0.0]],
                                                    [0.0], [[0.0, 0.0]], [[0.5, 0.0]]]))
        assert pl.sr_pos.tolist() == [[0.5, 0.0]]


class TestChannels:
    def test_shapes_and_signs(self, default_params):
        real = topology.make_realization(default_params, 7)
        l, q = default_params.l_pu, default_params.l_su
        assert real.gamma_dir.shape == (l,)
        assert real.gamma_relay.shape == real.gamma_sr.shape == (l, q)
        for arr in (real.gamma_dir, real.gamma_relay, real.gamma_sr):
            assert np.all(arr > 0.0)
        # the paper form saturates below one
        assert np.all(real.gamma_relay < 1.0)
        # every per-pair array is [l, q], whatever the shape and knowledge mode
        for l, q in ((3, 5), (6, 2)):
            for knowledge in ("complete", "partial"):
                real = topology.make_realization(topology.params_from_dict(
                    {"l_pu": l, "l_su": q, "snr_knowledge": knowledge}), 7)
                pairs = [real.gamma_relay, real.gamma_sr]
                if knowledge == "partial":
                    pairs.append(real.partial_mean_log)
                assert [a.shape for a in pairs] == [(l, q)] * len(pairs)

    def test_relay_pair_channel_varies_per_band_by_default(self, default_params):
        # a relay pair's own distance is one for every band, so the bands'
        # SNRs differ by their fading alone
        real = topology.make_realization(default_params, 11)
        assert default_params.l_pu > 1
        assert not np.allclose(real.gamma_sr[0], real.gamma_sr[1])

    def test_same_seed_reproduces(self, default_params):
        a = topology.make_realization(default_params, 42)
        b = topology.make_realization(default_params, 42)
        assert np.array_equal(a.gamma_relay, b.gamma_relay)
        assert np.array_equal(a.placement.st_pos, b.placement.st_pos)
        c = topology.make_realization(default_params, 43)
        assert not np.array_equal(a.gamma_relay, c.gamma_relay)

    def test_int_seed_equals_seed_sequence(self, default_params):
        a = topology.make_realization(default_params, 5)
        b = topology.make_realization(default_params, np.random.SeedSequence(5))
        assert np.array_equal(a.gamma_sr, b.gamma_sr)
        assert np.array_equal(a.gamma_relay, b.gamma_relay)

    def test_direct_snr_mean_matches_link_budget(self, default_params):
        # 5 dB transmit SNR over a fixed distance-2 path with unit-mean
        # fading: mean direct SNR is 10^0.5 / 2^4
        expected = 10.0 ** 0.5 / 16.0
        draws = []
        for s in range(400):
            real = topology.make_realization(default_params, s)
            draws.extend(real.gamma_dir.tolist())
        assert np.mean(draws) == pytest.approx(expected, rel=0.1)

    def test_partial_mode_precomputes_expected_terms(self):
        p = topology.params_from_dict({"snr_knowledge": "partial"})
        real = topology.make_realization(p, 3)
        assert real.partial_mean_log is not None
        assert real.partial_mean_log.shape == (p.l_pu, p.l_su)
        assert np.all(real.partial_mean_log > 0.0)

    def test_complete_mode_skips_expected_terms(self, default_params):
        real = topology.make_realization(default_params, 3)
        assert real.partial_mean_log is None

    @pytest.mark.parametrize("knowledge", ["complete", "partial"])
    @pytest.mark.parametrize("powers", [
        {"gamma_pu_db": 1600.0, "gamma_su_db": 1600.0},   # hop product: inf/inf relayed SNRs
        {"gamma_su_db": 3050.0},                          # the relay pair's own link: inf
    ], ids=["relayed-nan", "relay-own-inf"])
    @pytest.mark.filterwarnings("error")   # rejected without a numpy warning
    def test_an_overflowing_draw_is_rejected(self, powers, knowledge):
        # each transmit SNR alone is a finite float, so the parameters pass
        params = topology.params_from_dict({**powers, "snr_knowledge": knowledge})
        with pytest.raises(ValueError, match="non-finite channel realization rejected"):
            topology.make_realization(params, 0)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_gains_rejected(self, default_params):
        # an infinite squared gain (u = 1 gives -log1p(-1) = inf) or a nan
        # distance reaches the kept SNRs, and the draw refuses them
        class Ones:
            def random(self, shape):
                return np.ones(shape)

        placement = topology.place_users(default_params, np.random.default_rng(0))
        pr_nan = placement.pr_pos.copy()
        pr_nan[0, 0] = np.nan
        for rng, where in ((Ones(), placement),
                           (np.random.default_rng(1), dataclasses.replace(placement, pr_pos=pr_nan))):
            with pytest.raises(ValueError, match="non-finite channel realization rejected"):
                topology.draw_channels(default_params, where, rng)

    def test_link_snr_works_in_place(self):
        h2, distance = np.array([[1.0, 3.0], [0.5, 2.0]]), np.array([[2.0], [0.5]])
        want = 4.0 * h2 / distance ** 3.0
        got = radio.link_snr(h2, 4.0, distance, 3.0)
        assert got is h2 and got.tobytes() == want.tobytes()
        assert distance.tolist() == [[8.0], [0.125]]

    def test_a_large_draw_keeps_only_the_snrs(self):
        """The tracemalloc peak of one 100x200 draw stays under 1.2 MB:
        each fading draw becomes its SNR in place and the hop SNRs go once
        composed. Keeping every squared gain and distance peaked near
        1.7 MB."""
        params = topology.params_from_dict({"l_pu": 100, "l_su": 200})
        topology.make_realization(params, 1)
        tracemalloc.start()
        try:
            real = topology.make_realization(params, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert real.gamma_relay.shape == (100, 200)
        assert peak < 1.2e6, peak


class TestGoldenRealization:
    """Channel realizations pinned over the seeded markets of
    helpers.GOLDEN_MARKETS: placement, the three kept SNR arrays and the
    partial-knowledge terms, every entry as a float hex, in one sha256.
    Re-record the digest only for a change declared to alter the draws."""

    DIGEST = "0b172a9647c30d656b8cd6c67b3fc4a8718f65915e178b2bd538580b3832beae"

    @staticmethod
    def _arrays(real):
        yield from dataclasses.astuple(real.placement)
        yield real.gamma_dir
        yield real.gamma_relay
        yield real.gamma_sr.T   # the draw's [q, l] order, which the digest was recorded in
        if real.partial_mean_log is not None:
            yield real.partial_mean_log

    def test_realizations_match_the_recorded_digest(self):
        digest = hashlib.sha256()
        for overrides, seeds in GOLDEN_MARKETS:
            params = topology.params_from_dict(overrides)
            for seed in range(seeds):
                for arr in self._arrays(topology.make_realization(params, seed)):
                    hexes = [float.hex(v) for v in arr.ravel().tolist()]
                    digest.update(repr((arr.shape, hexes)).encode())
        assert digest.hexdigest() == self.DIGEST

    @pytest.mark.parametrize("overrides, seeds",
                             [*GOLDEN_MARKETS, ({"l_pu": 100, "l_su": 200}, 3)],
                             ids=lambda v: (str(v) if isinstance(v, int) else
                                            ",".join(f"{k}={w}" for k, w in v.items())
                                            or "defaults"))
    def test_draws_equal_the_reference(self, overrides, seeds):
        # placement and the kept SNRs bit for bit against the plain-numpy
        # draw, whose distances are np.linalg.norm's
        params = topology.params_from_dict(overrides)
        for seed in range(seeds):
            real = topology.make_realization(params, seed)
            want = reference_draw(params, seed)
            pl = real.placement
            for name in ("pt_pos", "pr_pos", "st_pos", "sr_pos"):
                assert getattr(pl, name).tobytes() == getattr(want, name).tobytes(), name
            for name in ("gamma_dir", "gamma_relay", "gamma_sr"):
                assert getattr(real, name).tobytes() == getattr(want, name).tobytes(), name
            assert np.all(want.d_pt_pr == 2.0)
