"""Golden run: a fixed-seed tiny pre-training and its embedding of a fixed input.

The expected numbers were recorded from this code path and pin what the
whole pipeline computes: toy simulation, resampling, rotation and mask
augmentation, the encoder's forward and backward passes, the InfoNCE loss,
the learned temperature, Adam, and both text providers.
"""

import numpy as np
import pytest

from imuclr.contrastive import TrainConfig, pretrain
from imuclr.graph_encoder import EncoderConfig
from imuclr.inference import Model
from imuclr.simulate import simulate_sequence
from imuclr.skeleton import body22
from imuclr.text_embeddings import TrainableTextEncoder
from imuclr.toy import make_toy_pretrain_data, make_toy_sequence, toy_text_assets

DIM = 9  # three classes x three descriptions, one basis vector each


def golden_run(trainable_text):
    samples, descriptions = make_toy_pretrain_data(2, seed=3, duration=1.0)
    table, _ = toy_text_assets(dim=DIM)
    text = TrainableTextEncoder.from_table(table, np.random.default_rng(5)) if trainable_text else table
    encoder = EncoderConfig(blocks=((6, 4, 3), (4, 8, 3)), embedding_dim=DIM)
    cfg = TrainConfig(batch_size=4, epochs=3, lr=1e-2, mask_min=1, mask_max=5, seed=5)
    log = []
    ckpt = pretrain(samples, descriptions, text, body22(), encoder, cfg,
                    on_epoch=lambda epoch, loss, inv_gamma: log.append((loss, inv_gamma)))
    # a 30 Hz recording resampled to the model's 20 Hz
    seq = make_toy_sequence(1, np.random.default_rng(11), fs=30.0, duration=1.0)
    series = simulate_sequence(seq, target_fs=20.0, rng=np.random.default_rng(2))
    return Model(ckpt).embed(series), np.array(log)


GOLDEN = {
    False: (
        [-0.44601273235581684, -0.22405474420384344, -0.003841623763862597,
         -0.8534654969671474, -0.3985450207722369, -0.09091547425392625,
         0.31621197267972684, 0.28351053036938434, 0.07634698490090479],
        [[2.024265168162027, 14.143569054855385],
         [1.61925888222403, 14.016644173268041],
         [1.282099944393112, 13.916523812346549]],
    ),
    True: (
        [0.21771999118738847, -0.458357748923133, -0.8209812861097799,
         0.08198220255557061, 0.07532178065381438, -0.07258046847695741,
         -0.996528656212816, -0.08206986527464794, 0.4652935082111864],
        [[1.7028659000223785, 14.143569056338952],
         [1.304660608133899, 14.057141780520519],
         [1.3248757492116279, 13.999964689534146]],
    ),
}


@pytest.mark.parametrize("trainable_text", [False, True])
def test_golden_pretrain_embedding(trainable_text):
    emb, log = golden_run(trainable_text)
    expected_emb, expected_log = GOLDEN[trainable_text]
    np.testing.assert_allclose(emb, expected_emb, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log, expected_log, rtol=0, atol=1e-9)
