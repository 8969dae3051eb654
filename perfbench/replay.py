"""Layer-by-layer replay for the traced run.

Each stage's calls are replayed through imuclr's public functions with the
workload's shapes and seeds, inside spans. A stage's per-layer metric is
the median over repeats of the summed span time per repeat: one training
step for pretrain, one pass over the directory (per sequence) for ingest,
one set-up for zero_shot_eval.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np

from imuclr import autodiff
from imuclr.augment import apply_mask, rotate_augment, sample_joint_mask, sample_joint_rotations
from imuclr.checkpoint import load_checkpoint
from imuclr.datasets import load_pretrain_samples
from imuclr.contrastive import Temperature, contrastive_loss
from imuclr.formats import (
    read_manifest_file,
    read_mapping_file,
    read_skeleton_file,
    read_timeseries_file,
    write_timeseries_file,
)
from imuclr.graph_encoder import build_adjacency, encode_batch, init_encoder_params
from imuclr.inference import Model, assign_to_joints, report_from_scores, windows
from imuclr.simulate import MotionTimeSeries, resample, simulate_sequence
from imuclr.skeleton import body22
from imuclr.text_embeddings import sample_description

from spans import op_spans
from workloads import BATCH, ENCODER, LR, Ingest, Pretrain, ZeroShotEval

ENCODER_OPS = ("graph_conv", "time_conv", "relu", "channel_affine", "pool_time_joints", "linear")
TRAIN_STEPS = 12  # the first is a warm-up and is not counted
INGEST_PASSES = 3
EVAL_SETUPS = 5


def median_of(per_repeat, name):
    values = [d[name] for d in per_repeat if name in d]
    return statistics.median(values) if values else None


def nominal_train_flops(batch, frames, joints):
    """FLOPs of the encoder's GEMM work for one forward plus backward pass.

    Forward: per block, K_s products x A_k (2 B C T V^2 each), K_s channel
    mixes (2 B O C T V each) and the temporal convolution (2 B O O K_t T V),
    then the projection. Backward is counted as twice the forward.
    """
    k_s = ENCODER.num_partitions
    btv = batch * frames * joints
    fwd = 0
    for c_in, c_out, k_t in ENCODER.blocks:
        fwd += k_s * (2 * btv * c_in * joints + 2 * btv * c_out * c_in) + 2 * btv * c_out * c_out * k_t
    fwd += 2 * batch * ENCODER.out_channels * ENCODER.embedding_dim
    return 3 * fwd


def replay_pretrain(root, seed, tracer):
    """TRAIN_STEPS training steps on the pretrain inputs, op by op."""
    wl = Pretrain(root, seed)
    wl.setup()
    samples, table, descriptions = wl.samples, wl.table, wl.descriptions
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
    rng_init, rng_batch, rng_rot, rng_mask, rng_desc = rngs
    params = init_encoder_params(ENCODER, rng_init)
    temperature = Temperature.create()
    adj = build_adjacency(body22(), ENCODER.partition).normalized()
    optimizer = autodiff.Adam(list(params.values()) + [temperature.log_inv_gamma], lr=LR)
    joints = samples[0].series.num_joints
    per_step = []
    for step in range(TRAIN_STEPS):
        chosen = [samples[i] for i in rng_batch.permutation(len(samples))[:BATCH]]
        with tracer.span("replay.train_step") as root_span:
            with tracer.span("augment.batch"):
                rotations = sample_joint_rotations(joints, rng_rot)
                mask = sample_joint_mask(joints, 1, 5, rng_mask)
                batch = np.stack([apply_mask(rotate_augment(s.series, rotations=rotations), mask).data for s in chosen])
            with op_spans(tracer, autodiff, ENCODER_OPS) as marks:
                with tracer.span("graph_encoder.forward"):
                    emb = encode_batch(batch, adj, params, ENCODER)
                with tracer.span("contrastive.loss"):
                    text = table.matrix([sample_description(descriptions, s.seq_id, rng_desc) for s in chosen])
                    loss = contrastive_loss(emb, text, temperature)
                with tracer.span("autodiff.backward") as backward_span:
                    optimizer.zero_grad()
                    loss.backward()
                marks.flush(tracer, backward_span, time.perf_counter())
            with tracer.span("autodiff.adam"):
                optimizer.step()
        if step:
            per_step.append(tracer.durations(root_span))
    out = {
        "augment.batch_ms": median_of(per_step, "augment.batch"),
        "graph_encoder.forward_ms": median_of(per_step, "graph_encoder.forward"),
        "contrastive.loss_ms": median_of(per_step, "contrastive.loss"),
        "autodiff.backward_ms": median_of(per_step, "autodiff.backward"),
        "autodiff.adam_ms": median_of(per_step, "autodiff.adam"),
    }
    for op in ENCODER_OPS:
        for phase in ("fwd", "bwd"):
            out[f"autodiff.{op}.{phase}_ms"] = median_of(per_step, f"autodiff.{op}.{phase}")
    out = {k: None if v is None else 1e3 * v for k, v in out.items()}
    flops = nominal_train_flops(BATCH, samples[0].series.num_frames, joints)
    seconds = (out["graph_encoder.forward_ms"] + out["autodiff.backward_ms"]) / 1e3
    out["graph_encoder.gflops"] = flops / seconds / 1e9
    return out


def replay_ingest(root, seed, tracer):
    """Per-sequence times of the calls a cold and a warm load are made of.

    After each sequence's replayed calls, a directory holding only that
    sequence is loaded cold and then warm. The overheads are the paired
    differences, taken a few milliseconds apart so that the host's slow
    spells fall on both sides. A metric is the mean over sequences of the
    median over INGEST_PASSES passes.
    """
    wl = Ingest(root, seed)
    names = sorted(n for n in os.listdir(wl.skel_dir) if n.endswith(".skel"))
    singles = []
    for name in names:
        single = os.path.join(root, "single", name)
        os.makedirs(single)
        shutil.copyfile(os.path.join(wl.skel_dir, name), os.path.join(single, name))
        singles.append(single)
    scratch = os.path.join(root, "replay.tsb")
    rows = {name: [] for name in names}
    cold_parts = ("formats.read_skeleton", "simulate.simulate", "simulate.resample", "formats.write_tsb")
    for _ in range(INGEST_PASSES):
        for index, name in enumerate(names):
            with tracer.span("replay.ingest_sequence") as seq_span:
                with tracer.span("formats.read_skeleton"):
                    seq = read_skeleton_file(os.path.join(wl.skel_dir, name))
                with tracer.span("simulate.simulate"):
                    series = simulate_sequence(seq, target_fs=seq.frame_rate, rng=np.random.default_rng(seed ^ index))
                with tracer.span("simulate.resample"):
                    t, v = series.num_frames, series.num_joints
                    flat = resample(series.data.transpose(1, 0, 2).reshape(t, 6 * v), seq.frame_rate, 20.0)
                    series = MotionTimeSeries(flat.reshape(-1, 6, v).transpose(1, 0, 2), series.mask, 20.0)
                with tracer.span("formats.write_tsb"):
                    write_timeseries_file(scratch, series, binary=True)
                with tracer.span("formats.read_tsb"):
                    read_timeseries_file(scratch)
            row = tracer.durations(seq_span)
            shutil.rmtree(os.path.join(singles[index], ".simcache"), ignore_errors=True)
            for mode in ("cold", "warm"):
                with tracer.span(f"datasets.load_pretrain_samples.{mode}") as load_span:
                    load_pretrain_samples(singles[index], fs=20.0, seed=seed)
                row[mode] = tracer.spans[load_span][2] - tracer.spans[load_span][1]
            row["cold_overhead"] = row["cold"] - sum(row[k] for k in cold_parts)
            row["warm_overhead"] = row["warm"] - row["formats.read_tsb"]
            rows[name].append(row)
    os.remove(scratch)
    metrics = {
        "formats.read_skeleton_ms": "formats.read_skeleton",
        "simulate.simulate_ms": "simulate.simulate",
        "simulate.resample_ms": "simulate.resample",
        "formats.write_tsb_ms": "formats.write_tsb",
        "formats.read_tsb_ms": "formats.read_tsb",
        "datasets.cold_overhead_ms": "cold_overhead",
        "datasets.warm_overhead_ms": "warm_overhead",
    }
    return {m: 1e3 * statistics.mean(median_of(r, key) for r in rows.values()) for m, key in metrics.items()}


def replay_eval(root, seed, tracer):
    """The calls load_eval_dataset is made of, per set-up; then batch-1 forwards and the report."""
    wl = ZeroShotEval(root, seed)
    per_setup = []
    for _ in range(EVAL_SETUPS):
        with tracer.span("replay.eval_setup") as setup_span:
            with tracer.span("checkpoint.load"):
                ckpt = load_checkpoint(wl.ckpt_path)
            with tracer.span("inference.model_init"):
                model = Model(ckpt)
            manifest = read_manifest_file(wl.manifest)
            mapping = read_mapping_file(os.path.join(root, manifest.mapping_path), ckpt.structure)
            dataset = []
            for item in manifest.samples:
                with tracer.span("formats.read_timeseries"):
                    series = read_timeseries_file(os.path.join(root, item.data_path))
                data = series.data.copy()
                data[0:3] *= item.unit_scale
                with tracer.span("simulate.resample_eval"):
                    c, t, v = data.shape
                    flat = resample(data.transpose(1, 0, 2).reshape(t, c * v), series.sample_rate, ckpt.sample_rate)
                    data = flat.reshape(-1, c, v).transpose(1, 0, 2)
                devices = {loc: (data[0:3, :, i].T, data[3:6, :, i].T) for i, loc in enumerate(item.locations)}
                with tracer.span("inference.assign"):
                    assigned = assign_to_joints(devices, mapping, ckpt.structure.num_joints, ckpt.sample_rate)
                with tracer.span("inference.windows"):
                    dataset += [(w, item.label) for w in windows(assigned, ckpt.train_window)]
        per_setup.append(tracer.durations(setup_span))
    names = ("checkpoint.load", "inference.model_init", "formats.read_timeseries", "simulate.resample_eval",
             "inference.assign", "inference.windows")
    out = {f"{n}_ms": 1e3 * median_of(per_setup, n) for n in names}

    wl.setup()
    forward, scores = [], []
    for series, _ in wl.dataset:
        with tracer.span("graph_encoder.forward_b1") as span:
            emb = encode_batch(series.data[None], model.adj_norm, model.encoder_params(), model.config)
        forward.append(tracer.spans[span][2] - tracer.spans[span][1])
        scores.append(wl.labels.embeddings @ emb.value[0])
    y = [wl.labels.index(label) for _, label in wl.dataset]
    reports = []
    for _ in range(EVAL_SETUPS):
        with tracer.span("inference.report") as span:
            report_from_scores(y, np.stack(scores))
        reports.append(tracer.spans[span][2] - tracer.spans[span][1])
    out["graph_encoder.forward_b1_ms"] = 1e3 * statistics.median(forward)
    out["inference.report_ms"] = 1e3 * statistics.median(reports)
    return out


def replay_all(root, seed, tracer):
    """Per-layer metrics of all three stages; an op the encoder no longer calls maps to None."""
    out = {}
    out.update(replay_pretrain(os.path.join(root, "pretrain"), seed, tracer))
    out.update(replay_ingest(os.path.join(root, "ingest"), seed, tracer))
    out.update(replay_eval(os.path.join(root, "zero_shot_eval"), seed, tracer))
    return out
