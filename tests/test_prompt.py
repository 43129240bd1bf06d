import numpy as np
import pytest

from tpt import autodiff as ad
from tpt import data as dat
from tpt import model as mdl
from tpt import prompt as pr
from tpt.autodiff import Tape, Tensor


@pytest.fixture(scope="module")
def config():
    return mdl.ModelConfig()


@pytest.fixture(scope="module")
def weights(config):
    return mdl.init_weights(config, seed=0)


class TestPromptState:
    def test_validation(self):
        with pytest.raises(ValueError):
            pr.PromptState(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            pr.PromptState(np.zeros(4))
        with pytest.raises(ValueError):
            pr.PromptState(np.array([[np.nan, 0.0]]))

    def test_params_are_trainable_leaves(self):
        state = pr.PromptState(np.zeros((2, 4)))
        for p in state.params():
            assert isinstance(p, Tensor)
            assert p.requires_grad and not p.grad.any()


class TestInitFromTemplate:
    def test_matches_embedding_rows(self, weights, config):
        ids = dat.template_ids()
        state = pr.init_from_template(weights, config, ids)
        np.testing.assert_array_equal(
            state.prompt.data, weights["token_embedding"].data[list(ids)])

    def test_detached_from_embedding_table(self, weights, config):
        state = pr.init_from_template(weights, config, [1, 2])
        state.prompt.data += 5.0
        assert not np.allclose(weights["token_embedding"].data[1],
                               state.prompt.data[0])

    def test_empty_template_rejected(self, weights, config):
        with pytest.raises(ValueError, match="at least one"):
            pr.init_from_template(weights, config, [])

    def test_out_of_vocab_rejected(self, weights, config):
        with pytest.raises(ValueError, match="vocab"):
            pr.init_from_template(weights, config, [config.vocab_size])


class TestInitGaussian:
    def test_shapes_and_scale(self):
        state = pr.init_gaussian(4, 32, 0.02, seed=0)
        assert state.prompt.data.shape == (4, 32)
        assert state.cls.data.shape == (2, 1, 32)
        draws = np.concatenate([pr.init_gaussian(4, 32, 0.02, seed=s).prompt.data
                                for s in range(50)]).ravel()
        assert abs(draws.std() - 0.02) / 0.02 < 0.1

    def test_cls_draw_equals_two_row_draws(self):
        # one (2, 1, D) draw takes the values two (1, D) draws would
        state = pr.init_gaussian(4, 32, 0.02, seed=3)
        rng = np.random.default_rng(3)
        rng.normal(0.0, 0.02, size=(4, 32))
        rows = [rng.normal(0.0, 0.02, size=(1, 32)) for _ in range(2)]
        np.testing.assert_array_equal(state.cls.data, np.stack(rows))

    def test_seed_determinism(self):
        a = pr.init_gaussian(4, 32, 0.02, seed=7)
        b = pr.init_gaussian(4, 32, 0.02, seed=7)
        np.testing.assert_array_equal(a.prompt.data, b.prompt.data)

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            pr.init_gaussian(4, 32, 0.0, seed=0)


class TestAssemble:
    def test_concatenates_prompt_and_class_tokens(self, weights, config):
        state = pr.init_from_template(weights, config, dat.template_ids())
        n = len(state.prompt.data)
        class_ids = [[16, 17], [18, 19], [20, 21]]
        seqs = pr.assemble(state, mdl.embed_tokens(weights, config, class_ids))
        assert seqs.data.shape == (3, n + 2, config.embed_dim)
        for seq, ids in zip(seqs.data, class_ids):
            np.testing.assert_array_equal(seq[:n], state.prompt.data)
            np.testing.assert_array_equal(seq[n:], weights["token_embedding"].data[ids])

    def test_cls_tokens_as_tails(self, config):
        state = pr.init_gaussian(2, config.embed_dim, 0.02, seed=0)
        seqs = pr.assemble(state, state.cls)
        assert seqs.data.shape == (2, 3, config.embed_dim)
        np.testing.assert_array_equal(seqs.data[:, -1:], state.cls.data)
        np.testing.assert_array_equal(seqs.data[1, :2], state.prompt.data)

    def test_length_overflow(self, weights, config):
        state = pr.init_gaussian(config.max_text_len, config.embed_dim, 0.02, seed=0)
        seqs = pr.assemble(state, mdl.embed_tokens(weights, config, [[16]]))
        with pytest.raises(ValueError, match="max_text_len"):
            mdl.encode_texts(weights, config, seqs)

    def test_gradient_reaches_prompt_and_cls(self, weights, config):
        state = pr.init_gaussian(2, config.embed_dim, 0.02, seed=0)
        with Tape() as tape:
            feats = mdl.encode_texts(weights, config, pr.assemble(state, state.cls))
            tape.backward(ad.sum_all(feats))
        assert np.any(state.prompt.grad != 0.0)
        assert np.all(state.cls.grad.any(axis=-1))

    def test_gradient_reaches_prompt(self, weights, config):
        state = pr.init_from_template(weights, config, dat.template_ids())
        with Tape() as tape:
            seqs = pr.assemble(state, mdl.embed_tokens(weights, config, [[16], [17]]))
            feats = mdl.encode_texts(weights, config, seqs)
            loss = ad.sum_all(feats)
            tape.backward(loss)
        assert np.any(state.prompt.grad != 0.0)

    def test_prompt_gradient_equals_per_class_tape(self, weights, config):
        class_ids = [[16], [17], [18], [19]]
        r = Tensor(np.random.default_rng(3).normal(size=(4, config.proj_dim)))

        def prompt_grad(encode):
            state = pr.init_from_template(weights, config, dat.template_ids())
            with Tape() as tape:
                tape.backward(ad.sum_all(ad.mul(encode(state), r)))
            return state.prompt.grad

        def features(state, ids):
            return mdl.encode_texts(weights, config, pr.assemble(
                state, mdl.embed_tokens(weights, config, ids)))

        batched = prompt_grad(lambda s: features(s, class_ids))
        per_class = prompt_grad(lambda s: ad.concat_rows(
            [features(s, [ids]) for ids in class_ids]))
        np.testing.assert_array_equal(batched, per_class)
