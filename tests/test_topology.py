"""Scenario configuration, user placement, and channel draws."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from relaymarket import dda, radio, topology

from helpers import GOLDEN_MARKETS


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


class TestChannels:
    def test_shapes_and_signs(self, default_params):
        real = topology.make_realization(default_params, 7)
        l, q = default_params.l_pu, default_params.l_su
        assert real.h2_pt_pr.shape == (l,)
        assert real.h2_pt_st.shape == (l, q)
        assert real.h2_st_pr.shape == (l, q)
        assert real.h2_st_sr.shape == (q, l)
        for arr in (real.h2_pt_pr, real.h2_pt_st, real.h2_st_pr, real.h2_st_sr):
            assert np.all(arr > 0.0)
        assert np.all(real.d_pt_pr == 2.0)
        assert real.snr is not None
        assert real.snr.gamma_sr.shape == (q, l)

    def test_relay_pair_channel_varies_per_band_by_default(self, default_params):
        real = topology.make_realization(default_params, 11)
        assert default_params.l_pu > 1
        assert not np.allclose(real.h2_st_sr[:, 0], real.h2_st_sr[:, 1])

    def test_same_seed_reproduces(self, default_params):
        a = topology.make_realization(default_params, 42)
        b = topology.make_realization(default_params, 42)
        assert np.array_equal(a.h2_pt_st, b.h2_pt_st)
        assert np.array_equal(a.placement.st_pos, b.placement.st_pos)
        c = topology.make_realization(default_params, 43)
        assert not np.array_equal(a.h2_pt_st, c.h2_pt_st)

    def test_int_seed_equals_seed_sequence(self, default_params):
        a = topology.make_realization(default_params, 5)
        b = topology.make_realization(default_params, np.random.SeedSequence(5))
        assert np.array_equal(a.h2_st_sr, b.h2_st_sr)
        assert np.array_equal(a.d_pt_st, b.d_pt_st)

    def test_direct_snr_mean_matches_link_budget(self, default_params):
        # 5 dB transmit SNR over a fixed distance-2 path with unit-mean
        # fading: mean direct SNR is 10^0.5 / 2^4
        expected = 10.0 ** 0.5 / 16.0
        draws = []
        for s in range(400):
            real = topology.make_realization(default_params, s)
            draws.extend(real.snr.gamma_dir.tolist())
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

    def test_non_finite_gains_rejected(self, default_params):
        real = topology.make_realization(default_params, 1)
        real.h2_pt_pr = real.h2_pt_pr.copy()
        real.h2_pt_pr[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            radio.compute_snrs(default_params, real)


class TestGoldenRealization:
    """Channel realizations pinned over the seeded markets of
    helpers.GOLDEN_MARKETS: placement, squared gains, distances, SNRs and
    partial-knowledge terms, every entry as a float hex, in one sha256.
    Re-record the digest only for a change declared to alter the draws."""

    DIGEST = "a5a6bf3e74667ac7f0ab13d820d27b7b14ac453350df05a34acd613f58408b1a"

    @staticmethod
    def _arrays(real):
        yield from dataclasses.astuple(real.placement)
        for field in dataclasses.fields(real):
            value = getattr(real, field.name)
            if isinstance(value, np.ndarray):
                yield value
        yield from dataclasses.astuple(real.snr)
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

    @pytest.mark.parametrize("l_pu, l_su", [(2, 6), (25, 50), (100, 200)])
    def test_distances_equal_linalg_norm(self, l_pu, l_su):
        params = topology.params_from_dict({"l_pu": l_pu, "l_su": l_su})
        for seed in range(5):
            real = topology.make_realization(params, seed)
            pl = real.placement
            norm = np.linalg.norm
            for got, want in (
                    (real.d_pt_pr, norm(pl.pt_pos - pl.pr_pos, axis=1)),
                    (real.d_pt_st, norm(pl.pt_pos[:, None] - pl.st_pos[None], axis=2)),
                    (real.d_st_pr, norm(pl.pr_pos[:, None] - pl.st_pos[None], axis=2)),
                    (real.d_st_sr, norm(pl.st_pos - pl.sr_pos, axis=1))):
                assert got.tobytes() == want.tobytes()
