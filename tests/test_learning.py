"""Learning guard: a short run of the default (float32) model must learn.

Hidden 16, 500 steps of lr 1e-2 without decay on the train split of
``SynthConfig(seed=DATA_SEED)``, model seed ``MODEL_SEED``, trained with
``pipeline.fit`` and scored on the 20 val videos with ``pipeline.evaluate``.
Measured over the 10 (data, model) seed pairs (0, 0) and {1, 2, 3} x
{0, 1, 2}, float32 mAP@0.5 ran from 0.266 to 0.361 (mean 0.317); an
untrained model scores 0.005 to 0.027.  The floor sits well
below that minimum, so it fails on a model that stopped learning and not on
a numeric change that moves one seed pair.  Never lower it to pass; a
change of the training schedule may set a new floor from a new multi-seed
measurement.
"""

import numpy as np

from tfpdet import anchorkit, datakit, evalkit, heads, numcore as nc, pipeline, pyramid

DATA_SEED, MODEL_SEED = 0, 0
MAP50_FLOOR = 0.20


def test_short_run_learns_above_the_floor(tmp_path):
    datakit.generate_synthetic(datakit.SynthConfig(seed=DATA_SEED), tmp_path)
    records, _ = datakit.load_dataset(tmp_path)
    train = {vid: datakit.make_buffers(r, 768) for vid, r in records.items() if r.subset == "train"}
    val = {vid: r for vid, r in records.items() if r.subset == "val"}
    model = pipeline.Model.build(pyramid.EncoderConfig(input_dim=16, hidden_dim=16), pyramid.PyramidConfig(),
                                 heads.ApnConfig(scales=anchorkit.DEFAULT_SCALES),
                                 heads.AcnConfig(num_classes=3), seed=MODEL_SEED)
    cfg = pipeline.TrainConfig(sgd=nc.SgdConfig(learning_rate=1e-2, lr_decay_every=10**9), max_steps=500,
                               seed=MODEL_SEED)
    assert len(list(pipeline.fit(train, model, cfg))) == cfg.max_steps
    assert all(p.data.dtype == np.float32 for p in model.params.values())
    report = pipeline.evaluate(val, model, cfg, evalkit.EvalConfig())
    assert report.map_per_threshold[0.5] >= MAP50_FLOOR, report.map_per_threshold
