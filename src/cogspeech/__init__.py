"""Speech-based cognitive assessment pipeline.

Submodules
----------
corpus     session manifests, label hierarchy, RTTM timelines
wavio      WAV reading (16/24/32-bit PCM, 32/64-bit float) and float32 writing
dsp        high-pass filtering, spectral gating, loudness normalization
qc         acoustic quality gate (duration / RMS / clipping / SNR)
diar_eval  diarization metrics (DER, JER, purity, coverage) and grid search
streams    prosody-preserved and concatenated stream construction
features   hand-crafted acoustic feature sets and embedding ingestion
model      nested cross-validation harness, estimators, metrics
parallel   the order-preserving thread map behind every jobs option
cli        command-line entry points
"""

__version__ = "0.1.0"
