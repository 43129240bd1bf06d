"""Test-time prompt tuning on a miniature dual-encoder vision-language model.

Library layout:
  autodiff  — batched float64 tensors with tape-based reverse-mode gradients
  optim     — AdamW with decoupled weight decay
  model     — dual-encoder transformer, contrastive pretraining, persistence
  prompt    — learnable prompt state and sequence assembly
  augment   — random-resized-crop and AugMix view generation
  episode   — marginal-entropy episodes that restore every tensor they tune
  bongard   — concept reasoning tasks and the prompt fit it shares with CoOp
  data      — procedural datasets, shifts, captions
  harness   — evaluation ops, baselines, ablations, results files
  cli       — the `tpt` command line
"""

__version__ = "0.1.0"
