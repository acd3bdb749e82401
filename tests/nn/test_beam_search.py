"""Tests for beam-search decoding on both sequence models and for the
shared search (:func:`repro.nn.decoding.beam_search`) on its own."""

import numpy as np
import pytest

from repro.data import SpeechTask, TranslationTask
from repro.metrics import bleu_score
from repro.nn.decoding import beam_search
from repro.nn.models import Seq2Seq, Seq2SeqConfig, Transformer, TransformerConfig


@pytest.fixture(scope="module")
def transformer():
    model = Transformer(TransformerConfig(), rng=np.random.default_rng(0))
    return model.eval()  # decoding comparisons need dropout off


@pytest.fixture(scope="module")
def seq2seq():
    model = Seq2Seq(Seq2SeqConfig(), rng=np.random.default_rng(0))
    return model.eval()


class TestTransformerBeam:
    def test_beam1_matches_greedy(self, transformer):
        """Beam size 1 with no length penalty is greedy decoding."""
        task = TranslationTask()
        batch = next(task.batches(3, 1))
        greedy = task.strip(transformer.greedy_decode(batch.src, max_len=10))
        beam = task.strip(transformer.beam_decode(batch.src, beam_size=1,
                                                  max_len=10,
                                                  length_penalty=0.0))
        assert greedy == beam

    def test_beam_output_shape(self, transformer):
        task = TranslationTask()
        batch = next(task.batches(4, 1))
        out = transformer.beam_decode(batch.src, beam_size=3, max_len=8)
        assert out.shape[0] == 4
        assert out.shape[1] <= 8

    def test_invalid_beam_size(self, transformer):
        with pytest.raises(ValueError):
            transformer.beam_decode(np.array([[5, 2]]), beam_size=0)


class TestSeq2SeqBeam:
    def test_beam1_matches_greedy(self, seq2seq):
        task = SpeechTask()
        batch = next(task.batches(3, 1))
        greedy = task.strip(seq2seq.greedy_decode(batch.frames, max_len=8))
        beam = task.strip(seq2seq.beam_decode(batch.frames, beam_size=1,
                                              max_len=8, length_penalty=0.0))
        assert greedy == beam

    def test_beam_shape(self, seq2seq):
        task = SpeechTask()
        batch = next(task.batches(2, 1))
        out = seq2seq.beam_decode(batch.frames, beam_size=3, max_len=6)
        assert out.shape[0] == 2

    def test_invalid_beam_size(self, seq2seq):
        with pytest.raises(ValueError):
            seq2seq.beam_decode(np.zeros((1, 4, 16), dtype=np.float32),
                                beam_size=-2)


class TestBeamQuality:
    def test_beam_at_least_greedy_on_trained_model(self):
        """On a briefly-trained model beam search should not lose to
        greedy by a meaningful margin (corpus BLEU)."""
        import repro.nn as nn
        from repro.nn import functional as F
        rng = np.random.default_rng(2)
        model = Transformer(TransformerConfig(), rng=rng)
        task = TranslationTask()
        opt = nn.Adam(model.parameters(), lr=2e-3)
        for batch in task.batches(16, 120):
            loss = F.cross_entropy(model(batch.src, batch.tgt_in),
                                   batch.tgt_out, ignore_index=0)
            opt.zero_grad()
            loss.backward()
            opt.step()
        model.eval()
        batch = task.eval_set(24)
        refs = task.strip(batch.tgt_out)
        greedy = bleu_score(refs, task.strip(
            model.greedy_decode(batch.src, max_len=14)))
        beam = bleu_score(refs, task.strip(
            model.beam_decode(batch.src, beam_size=4, max_len=14)))
        assert beam >= greedy - 3.0


# ------------------------------------------------------ the shared search
BOS, EOS, VOCAB = 1, 2, 8


def _scripted(table):
    """A scripted ``advance``: ``table`` maps each prefix (a tuple) to its
    next-token probabilities, and the tokens it leaves out share the
    rest evenly; each row is the log of those probabilities.  Returns
    ``(advance, reorder, calls, parents)``, where ``calls`` and
    ``parents`` record what the search passed to each."""
    calls, parents = [], []

    def advance(prefixes):
        calls.append([list(p) for p in prefixes])
        rows = []
        for prefix in prefixes:
            probs = table[tuple(prefix)]
            rest = (1.0 - sum(probs.values())) / (VOCAB - len(probs))
            rows.append(np.log([probs.get(t, rest) for t in range(VOCAB)]))
        return np.array(rows)

    return advance, parents.append, calls, parents


def _search(table, steps, beam_size=2, alpha=0.0, start=(BOS,)):
    advance, reorder, calls, parents = _scripted(table)
    best = beam_search(advance, reorder, list(start), steps, beam_size,
                       alpha, EOS)
    return best, calls, parents


class TestSharedSearch:
    def test_length_penalty_changes_the_winner(self):
        # Step 1: [1,2] finishes at log .5 = -0.693 and [1,3] lives at
        # log .45.  Step 2: [1,3,2] finishes at log .45 + log .95 =
        # -0.850.  Unnormalized, [1,2] wins.  At alpha 3 the scores are
        # -0.693 / (7/6)^3 = -0.436 and -0.850 / (8/6)^3 = -0.359, so
        # the longer hypothesis wins.
        table = {(BOS,): {EOS: .5, 3: .45}, (BOS, 3): {EOS: .95, 4: .04}}
        assert _search(table, steps=4, alpha=0.0)[0] == []
        best, calls, parents = _search(table, steps=4, alpha=3.0)
        assert best == [3]
        assert calls == [[[BOS]], [[BOS, 3]]]
        assert parents == [[0]]     # none once every beam has finished

    def test_eos_truncation(self):
        finishing = {(BOS,): {3: .9, EOS: .05}, (BOS, 3): {EOS: .9, 4: .05}}
        assert _search(finishing, steps=5, beam_size=1)[0] == [3]
        running = {(BOS,): {3: .9, EOS: .05}, (BOS, 3): {4: .9, EOS: .05}}
        assert _search(running, steps=2, beam_size=1)[0] == [3, 4]
        empty_start = {(): {3: .9, EOS: .05}, (3,): {EOS: .9, 4: .05}}
        assert _search(empty_start, steps=5, beam_size=1, start=())[0] == [3]

    def test_finished_beam_is_carried_over_unchanged(self):
        # [1,2] finishes at step 1 with the best score and is never
        # advanced again; the live beam grows for two more steps.
        table = {(BOS,): {EOS: .5, 3: .45}, (BOS, 3): {4: .9, 5: .05},
                 (BOS, 3, 4): {6: .9, 7: .05}}
        best, calls, parents = _search(table, steps=3)
        assert best == []
        assert calls == [[[BOS]], [[BOS, 3]], [[BOS, 3, 4]]]
        assert parents == [[0], [0], [0]]

    def test_tied_candidates_keep_their_order(self):
        # Both live beams score the same and advance on the same row, so
        # their best children tie: the first beam's child stays first.
        table = {(BOS,): {3: .4, 4: .4}, (BOS, 3): {5: .6, 6: .3},
                 (BOS, 4): {5: .6, 6: .3}, (BOS, 3, 5): {7: .9},
                 (BOS, 4, 5): {7: .9}}
        _, calls, parents = _search(table, steps=3)
        first, second = calls[1]
        assert sorted([first, second]) == [[BOS, 3], [BOS, 4]]
        assert parents[1] == [0, 1]
        assert calls[2] == [first + [5], second + [5]]

    def test_reorder_gets_the_parent_rows(self):
        # Step 2 ranks [1,4,5] (log .35 + log .99 = -1.060) above
        # [1,3,5] (log .6 + log .35 = -1.561): the second row leads.
        table = {(BOS,): {3: .6, 4: .35}, (BOS, 3): {5: .35, 6: .25},
                 (BOS, 4): {5: .99}}
        best, calls, parents = _search(table, steps=2)
        assert calls == [[[BOS]], [[BOS, 3], [BOS, 4]]]
        assert parents == [[0, 0], [1, 0]]
        assert best == [4, 5]
