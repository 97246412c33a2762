import numpy as np
import pytest

from measground.capture import CameraMetadata
from measground.errors import ConfigInvalid, DomainError, ShapeMismatch
from measground.probe import (
    LINEAR,
    MetaVector,
    ProbeConfig,
    ProbeStack,
    default_inject_layers,
    forward,
    grad_check,
    loss_and_gradients,
    random_stack,
    serialize_metadata_question,
)


def _meta(iso=800.0, exposure=1 / 60, aperture=2.8):
    return CameraMetadata(iso=iso, exposure_time=exposure, aperture=aperture,
                          device_id="probe-cam")


class TestMetaVector:
    def test_reference_points_map_to_zero(self):
        vec = MetaVector.from_metadata(_meta(iso=100.0, exposure=1 / 60, aperture=4.0))
        assert vec.values == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_log2_scaling(self):
        vec = MetaVector.from_metadata(_meta(iso=800.0, exposure=1 / 15, aperture=8.0))
        assert vec.values[0] == pytest.approx(3.0)
        assert vec.values[1] == pytest.approx(2.0)
        assert vec.values[2] == pytest.approx(1.0)

    def test_deterministic(self):
        m = _meta()
        assert MetaVector.from_metadata(m) == MetaVector.from_metadata(m)


class TestSerializeQuestion:
    def test_formatting_rules(self):
        q = serialize_metadata_question("What color?", _meta(iso=800, exposure=0.0166667, aperture=2.8))
        assert q == "What color? [CAMERA iso=800 exposure=0.0166667s aperture=f/2.80]"

    def test_disabled_returns_question_unchanged(self):
        q = "What color?"
        assert serialize_metadata_question(q, _meta(), enabled=False) == q

    def test_injective_in_iso(self):
        a = serialize_metadata_question("Q", _meta(iso=800))
        b = serialize_metadata_question("Q", _meta(iso=1600))
        assert a != b

    def test_injectivity_over_random_draws(self):
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(1000):
            m = _meta(
                iso=float(rng.uniform(50, 12800)),
                exposure=float(rng.uniform(1e-4, 1.0)),
                aperture=float(rng.uniform(1.0, 22.0)),
            )
            seen.add(serialize_metadata_question("Q", m))
        assert len(seen) == 1000

    def test_empty_question_rejected(self):
        with pytest.raises(DomainError):
            serialize_metadata_question("", _meta())


class TestForward:
    def test_zero_projection_is_bitwise_identity(self):
        stack = random_stack(4, 8, seed=0)
        stack = ProbeStack(
            weights=stack.weights, biases=stack.biases,
            projection_weight=np.zeros((8, 3)), projection_bias=np.zeros(8),
            inject_layers=stack.inject_layers,
        )
        rng = np.random.default_rng(1)
        h0 = rng.normal(size=8)
        mvec = rng.normal(size=3)
        with_inject = forward(stack, h0, mvec, inject=True)
        without = forward(stack, h0, mvec, inject=False)
        assert np.array_equal(with_inject, without)

    def test_single_identity_block_adds_projection(self):
        stack = ProbeStack(
            weights=np.eye(3)[None], biases=np.zeros((1, 3)),
            projection_weight=np.arange(9, dtype=float).reshape(3, 3),
            projection_bias=np.array([0.1, 0.2, 0.3]),
            inject_layers=(0,), nonlinearity=LINEAR,
        )
        h0 = np.array([1.0, -1.0, 0.5])
        mvec = np.array([0.5, 0.0, -0.5])
        expected = h0 + (stack.projection_weight @ mvec + stack.projection_bias)
        assert np.array_equal(forward(stack, h0, mvec), expected)

    def test_two_layer_hand_computed(self):
        w0 = np.array([[2.0, 0.0], [0.0, 3.0]])
        w1 = np.array([[1.0, 1.0], [0.0, 1.0]])
        stack = ProbeStack(
            weights=np.stack([w0, w1]), biases=np.array([[1.0, 0.0], [0.0, -1.0]]),
            projection_weight=np.zeros((2, 3)), projection_bias=np.array([0.5, 0.25]),
            inject_layers=(1,), nonlinearity=LINEAR,
        )
        h0 = np.array([1.0, 2.0])
        # layer 0: [2*1+1, 3*2] = [3, 6]; layer 1: [3+6, 6-1] = [9, 5];
        # inject at 1: + [0.5, 0.25]
        out = forward(stack, h0, np.zeros(3))
        assert np.array_equal(out, np.array([9.5, 5.25]))

    def test_inject_false_skips_projection(self):
        stack = random_stack(2, 4, seed=3)
        h0 = np.ones(4)
        mvec = np.ones(3)
        assert not np.array_equal(
            forward(stack, h0, mvec, inject=True),
            forward(stack, h0, mvec, inject=False),
        )

    def test_dimension_mismatch(self):
        stack = random_stack(2, 4, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(stack, np.ones(5), np.zeros(3))


class TestGradCheck:
    def test_random_stacks_pass(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            depth = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 9))
            stack = random_stack(depth, dim, seed=trial)
            h0 = rng.normal(size=dim)
            mvec = rng.normal(size=3)
            assert grad_check(stack, h0, mvec, eps=1e-5) < 1e-4

    def test_per_layer_projection_passes(self):
        stack = random_stack(3, 4, seed=11, per_layer_projection=True,
                             inject_layers=(0, 2))
        rng = np.random.default_rng(2)
        assert grad_check(stack, rng.normal(size=4), rng.normal(size=3)) < 1e-4

    def test_zero_everything_gives_zero_error(self):
        stack = ProbeStack(
            weights=np.zeros((2, 3, 3)), biases=np.zeros((2, 3)),
            projection_weight=np.zeros((3, 3)), projection_bias=np.zeros(3),
            inject_layers=(1,),
        )
        assert grad_check(stack, np.zeros(3), np.zeros(3)) == 0.0

    def test_eps_domain(self):
        stack = random_stack(1, 2, seed=0)
        with pytest.raises(DomainError):
            grad_check(stack, np.zeros(2), np.zeros(3), eps=1e-2)

    def test_per_layer_contributions_add_up(self):
        # With g == 0 the trajectory is injection-independent, so projection
        # gradients decompose exactly into per-layer contributions.
        base = random_stack(4, 5, seed=21)
        rng = np.random.default_rng(5)
        h0 = rng.normal(size=5)
        mvec = rng.normal(size=3)

        def g_grad(layers):
            stack = ProbeStack(
                weights=base.weights, biases=base.biases,
                projection_weight=np.zeros((5, 3)), projection_bias=np.zeros(5),
                inject_layers=layers,
            )
            grads = loss_and_gradients(stack, h0, mvec)
            return grads.projection_weight, grads.projection_bias

        both_w, both_b = g_grad((1, 3))
        only1_w, only1_b = g_grad((1,))
        only3_w, only3_b = g_grad((3,))
        np.testing.assert_allclose(both_w, only1_w + only3_w, atol=1e-12)
        np.testing.assert_allclose(both_b, only1_b + only3_b, atol=1e-12)
        # removing layer 3 removes exactly its contribution
        np.testing.assert_allclose(both_w - only3_w, only1_w, atol=1e-12)


class TestProbeConfig:
    def test_default_inject_layers(self):
        assert default_inject_layers(1) == (0,)
        assert default_inject_layers(4) == (3,)
        assert default_inject_layers(8) == (6, 7)

    def test_from_file(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text('{"depth": 3, "hidden_dim": 5, "inject_layers": [2]}')
        config = ProbeConfig.from_file(path)
        stack = config.build(9)
        assert stack.depth == 3
        assert stack.hidden_dim == 5
        assert stack.inject_layers == (2,)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "probe.json"
        path.write_text('{"depth": 3, "mystery": 1}')
        with pytest.raises(ConfigInvalid):
            ProbeConfig.from_file(path)

    def test_out_of_range_layers_rejected(self):
        with pytest.raises(ShapeMismatch):
            random_stack(2, 3, seed=0, inject_layers=(5,))
