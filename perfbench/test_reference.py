"""The benchmark's checks pass on the program's output and fail on a corrupted one.

Run from the repository root: python3 -m pytest perfbench
"""

import numpy as np
import pytest

import inputs
import reference
from spans import Tracer
from imuclr.contrastive import Temperature, contrastive_loss
from imuclr.graph_encoder import EncoderConfig, build_adjacency, encode_batch, init_encoder_params
from imuclr.inference import LabelSet, Model, evaluate, windows, zero_shot_classify
from imuclr.checkpoint import Checkpoint
from imuclr.simulate import MotionTimeSeries, NoiseParams, SkeletonSequence, simulate_sequence
from imuclr.skeleton import body22

CFG = EncoderConfig(blocks=((6, 8, 3), (8, 12, 5)), partition="distance", embedding_dim=10)


@pytest.fixture
def model_inputs():
    rng = np.random.default_rng(3)
    params = init_encoder_params(CFG, rng)
    for p in params.values():  # move the affines and the bias off their identity start
        p.value += 0.1 * rng.standard_normal(p.shape)
    arrays = {k: p.value.copy() for k, p in params.items()}
    x = rng.standard_normal((4, 6, 11, 22))
    adj = reference.normalized_adjacency(body22().parents, CFG.partition)
    return params, arrays, x, adj


def test_adjacency_matches_program():
    ok, _ = reference.check_close(
        reference.normalized_adjacency(body22().parents, "distance"),
        build_adjacency(body22(), "distance").normalized(),
        1e-15,
        "adjacency",
    )
    assert ok


def test_embedding_check_catches_one_perturbed_weight(model_inputs):
    params, arrays, x, adj = model_inputs
    program = encode_batch(x, build_adjacency(body22(), CFG.partition), params, CFG).value
    assert reference.check_close(program, reference.encoder_forward(x, arrays, 2, adj), 1e-9, "emb")[0]
    arrays["block1.temporal"][3, 2, 1] += 1e-3
    assert not reference.check_close(program, reference.encoder_forward(x, arrays, 2, adj), 1e-9, "emb")[0]


def test_chunked_forward_equals_whole_batch(model_inputs):
    _, arrays, x, adj = model_inputs
    whole = reference.encoder_forward(x, arrays, 2, adj)
    assert np.allclose(reference.encoder_forward_chunked(x, arrays, 2, adj, chunk=3), whole, rtol=1e-12, atol=0)


def test_info_nce_check_catches_an_altered_loss():
    rng = np.random.default_rng(5)
    g, f = rng.standard_normal((6, 10)), rng.standard_normal((6, 10))
    temperature = Temperature.create(gamma=0.2)
    program = float(contrastive_loss(g, f, temperature).value)
    expected = reference.info_nce(g, f, reference.inv_gamma(temperature.log_inv_gamma.value))
    assert reference.check_close(program, expected, 1e-12, "loss")[0]
    assert not reference.check_close(program * (1 + 1e-6), expected, 1e-9, "loss")[0]


def test_inv_gamma_is_clamped():
    assert reference.inv_gamma(np.log(500.0)) == 100.0
    assert reference.inv_gamma(np.log(20.0)) == pytest.approx(20.0)


def test_training_log_check():
    assert reference.check_training_log([(0, 2.7, 14.0), (1, 2.6, 14.1), (2, 2.5, 14.2)])[0]
    assert not reference.check_training_log([(0, 2.5, 14.0), (1, 2.6, 14.1)])[0]
    assert not reference.check_training_log([(0, 2.7, 14.0), (1, 2.6, 101.0)])[0]
    assert not reference.check_training_log([(0, 2.7, 14.0), (1, float("nan"), 14.0)])[0]


def _simulated(seed, frames=150):
    rng = np.random.default_rng(seed)
    motions = [reference.JointMotion.random(rng, base=(0.05 * j, 0.0, 1.0)) for j in range(22)]
    times = np.arange(frames) / 60.0
    seq = SkeletonSequence(
        np.stack([m.positions(times) for m in motions]), np.stack([m.quaternions(times) for m in motions]), 60.0
    )
    series = simulate_sequence(seq, noise=NoiseParams(), target_fs=20.0, rng=np.random.default_rng(seed))
    return series, motions, np.arange(reference.resampled_frames(frames, 60, 20)) / 20.0


def test_closed_form_channels_match_the_simulator():
    series, motions, times = _simulated(1)
    assert series.num_frames == (150 - 1) * 20 // 60 + 1
    assert reference.check_channels(series.data, motions, times, 0.05, 0.005)[0]


def test_channel_check_catches_one_shifted_channel():
    series, motions, times = _simulated(2)
    data = series.data.copy()
    data[1, 1:, 7] = data[1, :-1, 7]
    ok, detail = reference.check_channels(data, motions, times, 0.05, 0.005)
    assert not ok and "accel" in detail


def test_channel_check_needs_the_noise():
    rng = np.random.default_rng(4)
    motions = [reference.JointMotion.random(rng, base=(0.0, 0.0, 1.0)) for _ in range(22)]
    times = np.arange(100) / 60.0
    seq = SkeletonSequence(
        np.stack([m.positions(times) for m in motions]), np.stack([m.quaternions(times) for m in motions]), 60.0
    )
    clean = simulate_sequence(seq, noise=NoiseParams(0.0, 0.0), target_fs=20.0)
    t_out = np.arange(clean.num_frames) / 20.0
    assert not reference.check_channels(clean.data, motions, t_out, 0.05, 0.005)[0]


@pytest.mark.parametrize("frames,window,lo,hi", [(100, 40, 2, 3), (120, 40, 3, 3), (30, 40, 1, 1), (41, 40, 1, 2)])
def test_window_count_bounds(frames, window, lo, hi):
    assert reference.window_count_bounds(frames, window) == (lo, hi)


def _recording(frames, seed=0):
    rng = np.random.default_rng(seed)
    mask = np.zeros(22, dtype=bool)
    mask[[15, 18, 19]] = True
    data = np.zeros((6, frames, 22))
    data[:, :, mask] = rng.standard_normal((6, frames, 3))
    return MotionTimeSeries(data, mask, 20.0)


def test_program_windows_pass_and_a_shifted_window_fails():
    recs = [_recording(100, 0), _recording(130, 1)]
    refs = [(r.data, r.mask, "a", 40) for r in recs]
    pieces = [(w.data, w.mask, "a") for r in recs for w in windows(r, 40)]
    assert reference.check_windows(pieces, refs)[0]
    shifted = list(pieces)
    shifted[3] = (np.roll(pieces[3][0], 1, axis=1), pieces[3][1], "a")
    assert not reference.check_windows(shifted, refs)[0]
    assert not reference.check_windows(pieces[:1] + pieces[2:], refs)[0]  # 1 window from 100 frames


def _tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    params = {k: p.value for k, p in init_encoder_params(CFG, rng).items()}
    params["log_inv_gamma"] = np.array(np.log(1 / 0.07))
    ckpt = Checkpoint(config=CFG, structure=body22(), sample_rate=20.0, params=params, train_window=40)
    return ckpt, Model(ckpt)


def test_score_and_report_checks_catch_one_altered_score():
    ckpt, model = _tiny_model()
    rng = np.random.default_rng(7)
    labels = LabelSet(names=("x", "y", "z"), embeddings=rng.standard_normal((3, 10)))
    dataset = [(_recording(40, s), "xyz"[s % 3]) for s in range(9)]
    adj = reference.normalized_adjacency(body22().parents, CFG.partition)
    emb = reference.encoder_forward(np.stack([s.data for s, _ in dataset]), ckpt.params, 2, adj)
    scores = emb @ labels.embeddings.T
    expected = reference.report([labels.index(n) for _, n in dataset], scores)
    program = evaluate(model, dataset, labels)
    assert reference.check_report(program, expected, len(dataset))[0]
    assert not reference.check_report(program, expected, len(dataset) + 1)[0]
    _, window_scores = zero_shot_classify(dataset[4][0], model, labels)
    assert reference.check_close(window_scores, scores[4], 1e-9, "scores")[0]
    altered = window_scores.copy()
    altered[1] += 1e-6
    assert not reference.check_close(altered, scores[4], 1e-9, "scores")[0]
    moved = dict(expected, confusion=expected["confusion"].copy())
    moved["confusion"][0, 0] -= 1
    moved["confusion"][0, 1] += 1
    assert not reference.check_report(program, moved, len(dataset))[0]


def test_eval_recordings_have_whole_windows_and_a_tail():
    for _, _, data in inputs.eval_recordings(9):
        frames = reference.resampled_frames(data.shape[1], inputs.EVAL_FS, 20.0)
        assert 3 <= frames // 40 <= 6 and frames % 40 > 0


def test_span_self_time_subtracts_children():
    tracer = Tracer()
    tracer.record("outer", 0.0, 10.0, -1)
    tracer.record("inner", 1.0, 4.0, 0)
    tracer.record("inner", 5.0, 6.0, 0)
    tracer.record("leaf", 2.0, 3.0, 1)
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.durations(0) == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x") as index:
        assert index is None
    assert tracer.spans == []
