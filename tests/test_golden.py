"""Golden runs: fixed-seed tiny pre-trainings, their embedding of a fixed
input, and a short fine-tuning.

The expected numbers were recorded from this code path and pin what the
whole pipeline computes: toy simulation, resampling, rotation and mask
augmentation, the encoder's forward and backward passes, the InfoNCE loss
(one-sided and symmetric), the learned temperature, Adam, both text
providers, and the classifier's cross-entropy.
"""

import numpy as np
import pytest

from imuclr.contrastive import TrainConfig, pretrain
from imuclr.graph_encoder import EncoderConfig
from imuclr.inference import FinetuneConfig, Model, finetune
from imuclr.simulate import simulate_sequence
from imuclr.skeleton import body22
from imuclr.text_embeddings import TrainableTextEncoder
from imuclr.toy import make_toy_pretrain_data, make_toy_sequence, make_toy_test_data, toy_text_assets

DIM = 9  # three classes x three descriptions, one basis vector each


def tiny_pretrain(trainable_text, symmetric_loss=False):
    samples, descriptions = make_toy_pretrain_data(2, seed=3, duration=1.0)
    table, _ = toy_text_assets(dim=DIM)
    text = TrainableTextEncoder.from_table(table, np.random.default_rng(5)) if trainable_text else table
    encoder = EncoderConfig(blocks=((6, 4, 3), (4, 8, 3)), embedding_dim=DIM)
    cfg = TrainConfig(batch_size=4, epochs=3, lr=1e-2, mask_min=1, mask_max=5, seed=5,
                      symmetric_loss=symmetric_loss)
    log = []
    ckpt = pretrain(samples, descriptions, text, body22(), encoder, cfg,
                    on_epoch=lambda epoch, loss, inv_gamma: log.append((loss, inv_gamma)))
    return ckpt, np.array(log)


def golden_run(trainable_text, symmetric_loss=False):
    ckpt, log = tiny_pretrain(trainable_text, symmetric_loss)
    # a 30 Hz recording resampled to the model's 20 Hz
    seq = make_toy_sequence(1, np.random.default_rng(11), fs=30.0, duration=1.0)
    series = simulate_sequence(seq, target_fs=20.0, rng=np.random.default_rng(2))
    return Model(ckpt).embed(series), log


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


GOLDEN_SYMMETRIC = (
    [0.21496709619144796, -0.4367083432137897, -0.8269315325632692,
     0.11669400744927053, 0.07628944892353018, -0.0768542021771478,
     -1.0299146599240685, -0.06841120981054215, 0.45491909715388323],
    [[1.7015911129158963, 14.14356905636701],
     [1.30302560227772, 14.058549996371559],
     [1.3184761333121986, 14.004388703391768]],
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


@pytest.mark.parametrize("trainable_text", [False, True])
def test_golden_pretrain_embedding(trainable_text):
    emb, log = golden_run(trainable_text)
    expected_emb, expected_log = GOLDEN[trainable_text]
    np.testing.assert_allclose(emb, expected_emb, rtol=0, atol=1e-9)
    np.testing.assert_allclose(log, expected_log, rtol=0, atol=1e-9)


def test_golden_symmetric_pretrain_embedding():
    emb, log = golden_run(trainable_text=True, symmetric_loss=True)
    np.testing.assert_allclose(emb, GOLDEN_SYMMETRIC[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(log, GOLDEN_SYMMETRIC[1], rtol=0, atol=1e-9)


def test_golden_finetune_classifier():
    ckpt, _ = tiny_pretrain(trainable_text=False)
    _, labels = toy_text_assets(dim=DIM)
    # six rotated 20-frame recordings: every batch has the same length
    train = make_toy_test_data(2, seed=8, duration=1.0)
    cfg = FinetuneConfig(epochs=3, lr=1e-2, batch_size=4, seed=1)
    model = finetune(Model(ckpt), train, labels, cfg)
    np.testing.assert_allclose(model.params["classifier.weight"].value, GOLDEN_FINETUNE[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(model.params["classifier.bias"].value, GOLDEN_FINETUNE[1], rtol=0, atol=1e-9)
