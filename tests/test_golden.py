"""Golden runs: a fixed-seed tiny pre-training, its embedding of a fixed
input, and a short fine-tuning.

The expected numbers were recorded from this code path and pin what the
whole pipeline computes: toy simulation, resampling, rotation and mask
augmentation, the encoder's forward and backward passes, the one-way InfoNCE
loss against the raw frozen text table, with descriptions drawn from
originals and paraphrases, the learned temperature, Adam, and the
classifier's cross-entropy.
"""

import numpy as np

from imuclr.contrastive import TrainConfig, pretrain
from imuclr.graph_encoder import EncoderConfig
from imuclr.inference import FinetuneConfig, Model, finetune
from imuclr.simulate import simulate_sequence
from imuclr.skeleton import body22
from imuclr.toy import make_toy_pretrain_data, make_toy_sequence, make_toy_test_data, toy_text_assets

DIM = 9  # three classes x three descriptions, one basis vector each


def tiny_pretrain():
    samples, descriptions = make_toy_pretrain_data(2, seed=3, duration=1.0)
    table, _ = toy_text_assets(dim=DIM)
    encoder = EncoderConfig(blocks=((6, 4, 3), (4, 8, 3)), embedding_dim=DIM)
    cfg = TrainConfig(batch_size=4, epochs=3, lr=1e-2, mask_min=1, mask_max=5, seed=5)
    log = []
    ckpt = pretrain(samples, descriptions, table, body22(), encoder, cfg,
                    on_epoch=lambda epoch, loss, inv_gamma: log.append((loss, inv_gamma)))
    return ckpt, np.array(log)


def golden_run():
    ckpt, log = tiny_pretrain()
    # a 30 Hz recording resampled to the model's 20 Hz
    seq = make_toy_sequence(1, np.random.default_rng(11), fs=30.0, duration=1.0)
    series = simulate_sequence(seq, target_fs=20.0, rng=np.random.default_rng(2))
    return Model(ckpt).embed(series), log


GOLDEN = (
    [-0.44601273235581684, -0.22405474420384344, -0.003841623763862597,
     -0.8534654969671474, -0.3985450207722369, -0.09091547425392625,
     0.31621197267972684, 0.28351053036938434, 0.07634698490090479],
    [[2.024265168162027, 14.143569054855385],
     [1.61925888222403, 14.016644173268041],
     [1.282099944393112, 13.916523812346549]],
)


GOLDEN_FINETUNE = (
    [[0.15193693513934264, 0.28168300777693167, 0.06442044067381851],
     [-0.43764487567193655, 0.30754623841735773, 0.1594566741784003],
     [-0.18707144180983523, 0.1596715009008287, 0.168407353500956],
     [0.10226353565498826, 0.021220395243309813, 0.17251852596301567],
     [-0.23468131486474422, -0.044933153473131794, -0.17050090665141984],
     [0.18887774918091466, 0.06284608916372468, -0.09849579866649057],
     [-0.2540472792549364, -0.09929282996770508, 0.006206933870647795],
     [-0.10412232463175543, 0.41843990929036473, 0.35156959072029226],
     [-0.8696445141203754, -0.6160358043355504, -0.09498029577526676]],
    [0.0010989372647081364, -0.003549959824451175, -0.005970720566367346],
)


def test_golden_pretrain_embedding():
    emb, log = golden_run()
    np.testing.assert_allclose(emb, GOLDEN[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(log, GOLDEN[1], rtol=0, atol=1e-9)


def test_golden_finetune_classifier():
    ckpt, _ = tiny_pretrain()
    _, labels = toy_text_assets(dim=DIM)
    # six rotated 20-frame recordings: every batch has the same length
    train = make_toy_test_data(2, seed=8, duration=1.0)
    cfg = FinetuneConfig(epochs=3, lr=1e-2, batch_size=4, seed=1)
    model = finetune(Model(ckpt), train, labels, cfg)
    np.testing.assert_allclose(model.params["classifier.weight"].value, GOLDEN_FINETUNE[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.params["classifier.bias"].value, GOLDEN_FINETUNE[1], rtol=0, atol=1e-9)
