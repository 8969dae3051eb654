"""Golden runs: a fixed-seed tiny pre-training, its embedding of a fixed
input, and a short fine-tuning.

The expected numbers were recorded from this code path and pin what the
whole pipeline computes: toy simulation, resampling, rotation and mask
augmentation, the encoder's forward and backward passes, the one-way InfoNCE
loss against the raw frozen text table, with descriptions drawn from
originals and paraphrases, the learned temperature, Adam, and the
classifier's cross-entropy. Pre-training runs in float32 and fine-tuning
and the embedding in float64.
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
    [-0.44601265791667416, -0.2240548568167808, -0.0038417162723046183,
     -0.8534654992444608, -0.39854500595671544, -0.0909155275914505,
     0.3162119386539497, 0.28351051487541995, 0.07634705050294727],
    [[2.0242652893066406, 14.143568992614746],
     [1.619258999824524, 14.016643524169922],
     [1.282099962234497, 13.916524887084961]],
)


GOLDEN_FINETUNE = (
    [[0.15193694627024723, 0.2816830040307799, 0.06442043764420083],
     [-0.43764487565375126, 0.30754623943147474, 0.15945667080304943],
     [-0.18707145544146125, 0.15967150050491358, 0.16840736113858015],
     [0.10226353759797417, 0.02122039290103817, 0.1725185280697069],
     [-0.23468131196084296, -0.044933156758064606, -0.17050090451092056],
     [0.18887776102000325, 0.06284608163579525, -0.09849581119960617],
     [-0.2540472812470911, -0.09929282830436614, 0.0062069326721819066],
     [-0.10412232985574628, 0.418439911762142, 0.3515695903471461],
     [-0.8696445228210159, -0.6160358343052922, -0.09498028095366012]],
    [0.001098934231560577, -0.0035499569445448676, -0.005970720494425897],
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
