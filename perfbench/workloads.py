"""The three workloads: set-up, one round of operations, and their checks.

Each workload builds its inputs from a seed (`generate`, run in a process
of its own so that it does not set the measured process's peak memory),
times its set-up (`setup`), and runs rounds of the same operations
(`round`). A round returns the timed seconds of each call and one
(ok, detail) per operation. An operation that raises, or whose output
fails its check, counts as failed. `items_per_s` is `items_per_call` over
the median of the `items_key` times; `call_ms_p50` is the median of the
`call_key` times.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import numpy as np

import inputs
import reference
from imuclr.checkpoint import load_checkpoint, save_checkpoint
from imuclr.contrastive import PretrainSample, Temperature, TrainConfig, contrastive_loss, pretrain
from imuclr.datasets import load_eval_dataset, load_pretrain_samples
from imuclr.formats import read_description_file, read_embedding_file
from imuclr.graph_encoder import EncoderConfig
from imuclr.inference import LabelSet, Model, evaluate, zero_shot_classify
from imuclr.simulate import NoiseParams, SkeletonSequence, simulate_sequence
from imuclr.skeleton import body22
from imuclr.text_embeddings import DescriptionSet, TextEmbeddingTable

# the acceptance suite's pre-training configuration
ENCODER = EncoderConfig(blocks=((6, 16, 9), (16, 32, 9)), partition="distance", embedding_dim=64)
BATCH = 16
LR = 1e-4
EPOCHS_PER_OP = 5  # fewer epochs do not lower the loss for every seed at this learning rate
FD_STEP = 1e-6
WARM_PASSES = 3  # warm-cache loads per cold load in one ingest round


def train_config(seed, epochs):
    return TrainConfig(batch_size=BATCH, epochs=epochs, lr=LR, mask_min=1, mask_max=5, seed=seed)


def failure(exc):
    return False, f"{type(exc).__name__}: {exc}"


def cache_snapshot(cache_dir):
    """{name: (size, mtime_ns)} of the .simcache entries; {} when absent."""
    if not os.path.isdir(cache_dir):
        return {}
    out = {}
    for entry in os.scandir(cache_dir):
        st = entry.stat()
        out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


class Pretrain:
    """pretrain(): 150 toy sequences from a warm cache, EPOCHS_PER_OP epochs per operation."""

    name = "pretrain"
    items_key, call_key = "epoch", "call"

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.skel_dir = os.path.join(root, "skel")
        self.first_bytes = None
        self.reference_ok = None

    @staticmethod
    def generate(root, seed):
        inputs.write_pretrain_inputs(root, seed)
        load_pretrain_samples(os.path.join(root, "skel"), fs=inputs.PRETRAIN_FS, seed=seed)

    def setup(self):
        """Warm load_pretrain_samples plus the description and embedding files."""
        before = cache_snapshot(os.path.join(self.skel_dir, ".simcache"))
        start = time.perf_counter()
        samples = load_pretrain_samples(self.skel_dir, fs=inputs.PRETRAIN_FS, seed=self.seed)
        descriptions = read_description_file(os.path.join(self.root, "descriptions.tsv"))
        table = read_embedding_file(os.path.join(self.root, "embeddings.txt"))
        elapsed = time.perf_counter() - start
        self.samples, self.descriptions, self.table = samples, descriptions, table
        shapes = {s.series.data.shape for s in samples}
        self.setup_check = (
            len(samples) == 3 * inputs.PRETRAIN_PER_CLASS
            and shapes == {(6, inputs.PRETRAIN_FRAMES, inputs.NUM_JOINTS)}
            and cache_snapshot(os.path.join(self.skel_dir, ".simcache")) == before,
            f"{len(samples)} samples of shapes {sorted(shapes)} from a warm cache",
        )
        return elapsed

    @property
    def items_per_call(self):
        """Training samples per epoch: pretrain() drops a short last batch."""
        return (len(self.samples) // BATCH) * BATCH

    def round(self, tracer):
        """One pretrain() call; returns ({'call': [s], 'epoch': [s, ...]}, [(ok, detail)])."""
        log, marks = [], []

        def on_epoch(epoch, mean_loss, inv_gamma):
            marks.append(time.perf_counter())
            log.append((epoch, mean_loss, inv_gamma))

        cfg = train_config(self.seed, EPOCHS_PER_OP)
        try:
            start = time.perf_counter()
            with tracer.span("contrastive.pretrain"):
                ckpt = pretrain(self.samples, self.descriptions, self.table, body22(), ENCODER, cfg, on_epoch)
            stop = time.perf_counter()
        except Exception as exc:  # a raising operation is a failed one
            return {}, [failure(exc)]
        times = {"call": [stop - start], "epoch": list(np.diff([start] + marks))}
        return times, [self.check(ckpt, log)]

    def check(self, ckpt, log):
        if not self.setup_check[0]:
            return self.setup_check
        ok, detail = reference.check_training_log(log)
        if not ok:
            return ok, detail
        path = os.path.join(self.root, "op.ckpt")
        save_checkpoint(path, ckpt)
        with open(path, "rb") as fh:
            blob = fh.read()
        if self.first_bytes is None:
            self.first_bytes = blob
            self.reference_ok = self.check_against_reference(ckpt)
        elif blob != self.first_bytes:
            return False, "checkpoint bytes differ from the first operation with the same seed"
        return self.reference_ok

    def fixed_batch(self):
        """First BATCH samples without augmentation, each with its original description."""
        chosen = self.samples[:BATCH]
        x = np.stack([s.series.data for s in chosen])
        text = self.table.matrix([self.descriptions.candidates(s.seq_id, False)[0] for s in chosen])
        return x, text

    def check_against_reference(self, ckpt):
        """Embedding, InfoNCE loss and a directional derivative against plain numpy."""
        x, text = self.fixed_batch()
        params = {k: v.copy() for k, v in ckpt.params.items()}
        adj = reference.normalized_adjacency(ckpt.structure.parents, ckpt.config.partition)
        blocks = len(ckpt.config.blocks)

        def ref_loss(p):
            emb = reference.encoder_forward(x, p, blocks, adj)
            return reference.info_nce(emb, text, reference.inv_gamma(p["log_inv_gamma"]))

        model = Model(ckpt)
        temperature = Temperature(model.params["log_inv_gamma"])
        emb = model.embed_batch_tensor(x)
        loss = contrastive_loss(emb, text, temperature)
        ok, detail = reference.check_close(emb.value, reference.encoder_forward(x, params, blocks, adj), 1e-9, "embedding")
        if not ok:
            return ok, detail
        ok, detail = reference.check_close(float(loss.value), ref_loss(params), 1e-9, "InfoNCE loss")
        if not ok:
            return ok, detail
        for p in model.params.values():
            p.zero_grad()
        loss.backward()
        rng = np.random.default_rng(self.seed)
        direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
        analytic = sum(float(np.sum(model.params[k].grad * d)) / norm for k, d in direction.items())
        plus = {k: v + FD_STEP * direction[k] / norm for k, v in params.items()}
        minus = {k: v - FD_STEP * direction[k] / norm for k, v in params.items()}
        numeric = (ref_loss(plus) - ref_loss(minus)) / (2 * FD_STEP)
        err = abs(analytic - numeric) / max(abs(numeric), 1e-3)
        if not err <= 1e-4:
            return False, f"directional derivative {analytic!r} vs finite difference {numeric!r}"
        return True, f"matches reference; directional derivative relative error {err:.2g}"


class Ingest:
    """load_pretrain_samples(fs=20) of 16 closed-form 60 Hz skeletons: a cold pass, then warm passes."""

    name = "ingest"
    items_key, call_key = "cold", "warm"

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.skel_dir = os.path.join(root, "skel")
        self.cache_dir = os.path.join(self.skel_dir, ".simcache")
        self.sequences = inputs.ingest_sequences(seed)
        self.noise = NoiseParams()

    @staticmethod
    def generate(root, seed):
        inputs.write_ingest_inputs(root, seed)

    def setup(self):
        """Import time of imuclr.datasets (numpy already loaded) in a fresh interpreter."""
        code = (
            "import time, numpy; t = time.perf_counter(); import imuclr.datasets; "
            "print(repr(time.perf_counter() - t))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    @property
    def items_per_call(self):
        return len(self.sequences)

    def load(self):
        return load_pretrain_samples(self.skel_dir, fs=20.0, seed=self.seed)

    def round(self, tracer):
        """One cold pass, then WARM_PASSES warm passes; returns ({'cold': [..], 'warm': [..]}, checks)."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        times, checks = {"cold": [], "warm": []}, []
        try:
            start = time.perf_counter()
            with tracer.span("datasets.load_pretrain_samples.cold"):
                cold = self.load()
            times["cold"].append(time.perf_counter() - start)
            checks.append(self.check_cold(cold))
        except Exception as exc:
            return times, [failure(exc)] * (1 + WARM_PASSES)
        snapshot = cache_snapshot(self.cache_dir)
        for _ in range(WARM_PASSES):
            try:
                start = time.perf_counter()
                with tracer.span("datasets.load_pretrain_samples.warm"):
                    warm = self.load()
                times["warm"].append(time.perf_counter() - start)
                checks.append(self.check_warm(cold, warm, snapshot))
            except Exception as exc:
                checks.append(failure(exc))
        return times, checks

    def check_cold(self, samples):
        if [s.seq_id for s in samples] != [name for name, _, _ in self.sequences]:
            return False, "sequence ids differ from the skeleton files"
        for sample, (name, frames, motions) in zip(samples, self.sequences):
            series = sample.series
            expected = reference.resampled_frames(frames, inputs.INGEST_FS, 20.0)
            if series.num_frames != expected or series.sample_rate != 20.0:
                return False, f"{name}: {series.num_frames} frames at {series.sample_rate} Hz, expected {expected} at 20 Hz"
            times = np.arange(expected) / 20.0
            ok, detail = reference.check_channels(
                series.data, motions, times, self.noise.sigma_accel, self.noise.sigma_gyro
            )
            if not ok:
                return False, f"{name}: {detail}"
        if len(cache_snapshot(self.cache_dir)) != len(samples):
            return False, "the cold pass did not write one cache entry per sequence"
        return True, "frame counts and channels match the closed form"

    def check_warm(self, cold, warm, snapshot):
        if cache_snapshot(self.cache_dir) != snapshot:
            return False, "the warm pass wrote to the cache"
        for a, b in zip(cold, warm):
            if a.seq_id != b.seq_id or a.series.sample_rate != b.series.sample_rate:
                return False, f"{b.seq_id}: ids or rates differ from the cold pass"
            if not (np.array_equal(a.series.data, b.series.data) and np.array_equal(a.series.mask, b.series.mask)):
                return False, f"{b.seq_id}: warm arrays differ from the cold pass"
        if len(cold) != len(warm):
            return False, f"warm pass returned {len(warm)} sequences, cold {len(cold)}"
        return True, "warm pass is identical to the cold pass and writes nothing"


def build_eval_checkpoint(path):
    """Pre-train the acceptance configuration for one epoch from a fixed seed; save it."""
    rng = np.random.default_rng(inputs.CHECKPOINT_SEED)
    samples, descriptions, entries = [], DescriptionSet(), {}
    for index, (c, seq_id) in enumerate(inputs.pretrain_ids(inputs.CHECKPOINT_PER_CLASS)):
        positions, quaternions = inputs.toy_motion(c, rng)
        seq = SkeletonSequence(positions, quaternions, inputs.PRETRAIN_FS)
        series = simulate_sequence(seq, target_fs=inputs.PRETRAIN_FS, rng=np.random.default_rng(index))
        samples.append(PretrainSample(seq_id, series))
        descriptions.add(seq_id, f"c{c}d0")
        entries[f"c{c}d0"] = (seq_id, inputs.description_vector(c, 0))
    table = TextEmbeddingTable(dim=inputs.EMBED_DIM, entries=entries)
    ckpt = pretrain(samples, descriptions, table, body22(), ENCODER, train_config(inputs.CHECKPOINT_SEED, 1))
    save_checkpoint(path, ckpt)


class ZeroShotEval:
    """evaluate() over every window in bulk, then zero_shot_classify() one window at a time."""

    name = "zero_shot_eval"
    items_key, call_key = "evaluate", "classify"

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.ckpt_path = os.path.join(root, "model.ckpt")
        self.manifest = os.path.join(root, "manifest.tsv")
        self.recordings = inputs.eval_recordings(seed)
        self.expected = None

    @staticmethod
    def generate(root, seed):
        build_eval_checkpoint(os.path.join(root, "model.ckpt"))
        inputs.write_eval_recordings(root, seed)

    def setup(self):
        """load_checkpoint, Model, label embeddings and load_eval_dataset."""
        start = time.perf_counter()
        ckpt = load_checkpoint(self.ckpt_path)
        model = Model(ckpt)
        table = read_embedding_file(os.path.join(self.root, "labels.txt"))
        labels = LabelSet(names=tuple(table.text(i) for i in table.ids()), embeddings=table.matrix(table.ids()))
        dataset = load_eval_dataset(self.manifest, ckpt.structure, ckpt.sample_rate, window=ckpt.train_window)
        elapsed = time.perf_counter() - start
        self.ckpt, self.model, self.labels, self.dataset = ckpt, model, labels, dataset
        self.setup_check = self.check_dataset()
        return elapsed

    @property
    def items_per_call(self):
        return len(self.dataset)

    def reference_recordings(self):
        """Each recording as the model sees it, computed apart from the program."""
        structure = self.ckpt.structure
        joints = [structure.names.index(d) for d in inputs.DEVICES]
        out = []
        for _, label, data in self.recordings:
            scaled = data.copy()
            scaled[0:3] *= inputs.EVAL_UNIT_SCALE
            flat = scaled.transpose(1, 0, 2).reshape(data.shape[1], -1)
            flat = reference.resample_linear(flat, inputs.EVAL_FS, self.ckpt.sample_rate)
            full = np.zeros((6, flat.shape[0], structure.num_joints))
            full[:, :, joints] = flat.reshape(-1, 6, len(joints)).transpose(1, 0, 2)
            mask = np.zeros(structure.num_joints, dtype=bool)
            mask[joints] = True
            out.append((full, mask, label, self.ckpt.train_window))
        return out

    def check_dataset(self):
        pieces = [(s.data, s.mask, label) for s, label in self.dataset]
        ok, detail = reference.check_windows(pieces, self.reference_recordings())
        if not ok or self.expected is not None:
            return ok, detail
        # reference scores of the program's windows, once: every set-up yields the same windows
        params = self.ckpt.params
        adj = reference.normalized_adjacency(self.ckpt.structure.parents, self.ckpt.config.partition)
        x = np.stack([s.data for s, _ in self.dataset])
        emb = reference.encoder_forward_chunked(x, params, len(self.ckpt.config.blocks), adj)
        label_vectors = np.stack([inputs.description_vector(c, 0) for c in range(len(inputs.CLASS_NAMES))])
        scores = emb @ label_vectors.T
        y = [inputs.CLASS_NAMES.index(label) for _, label in self.dataset]
        self.expected = {"scores": scores, "report": reference.report(y, scores)}
        return ok, detail

    def round(self, tracer):
        """One evaluate() over all windows, then one zero_shot_classify() per window."""
        times, checks = {"evaluate": [], "classify": []}, []
        try:
            start = time.perf_counter()
            with tracer.span("inference.evaluate"):
                rep = evaluate(self.model, self.dataset, self.labels)
            times["evaluate"].append(time.perf_counter() - start)
            checks.append(self.setup_check if not self.setup_check[0] else
                          reference.check_report(rep, self.expected["report"], len(self.dataset)))
        except Exception as exc:
            checks.append(failure(exc))
        for i, (series, _) in enumerate(self.dataset):
            try:
                start = time.perf_counter()
                with tracer.span("inference.zero_shot_classify"):
                    pred, scores = zero_shot_classify(series, self.model, self.labels)
                times["classify"].append(time.perf_counter() - start)
                checks.append(self.check_classify(i, pred, scores))
            except Exception as exc:
                checks.append(failure(exc))
        return times, checks

    def check_classify(self, i, pred, scores):
        if not self.setup_check[0]:
            return self.setup_check
        expected = self.expected["scores"][i]
        ok, detail = reference.check_close(scores, expected, 1e-9, f"window {i} scores")
        if ok and pred != int(np.argmax(expected)):
            return False, f"window {i}: predicted {pred}, reference {int(np.argmax(expected))}"
        return ok, detail


WORKLOADS = {w.name: w for w in (Pretrain, Ingest, ZeroShotEval)}
