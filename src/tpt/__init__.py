"""Test-time prompt tuning on a miniature dual-encoder vision-language model.

Library layout:
  autodiff  — batched float64 tensors with tape-based reverse-mode gradients
  model     — dual-encoder transformer, contrastive pretraining, persistence
  prompt    — learnable prompt state and episodic reset
  augment   — random-resized-crop and AugMix view generation
  episode   — confidence-selected marginal-entropy minimization
  bongard   — context-dependent reasoning on synthetic concept tasks
  data      — procedural datasets, shifts, captions
  harness   — evaluation ops, baselines, ablations, results files
"""

from .autodiff import Tape, Tensor, finite_diff_check
from .augment import AugmentPolicy, generate_views
from .bongard import BongardSample, ReasonConfig, tpt_reason
from .data import Dataset, DatasetSpec, ShiftSpec, apply_shift, generate
from .episode import (PredictionSet, TPTConfig, confidence_threshold, entropy,
                      marginal_entropy_loss, predict_views, select_and_average,
                      tpt_classify)
from .model import (ModelConfig, class_probabilities, encode_image, encode_images,
                    encode_text, encode_texts, init_weights, load_weights,
                    pretrain_contrastive, save_weights)
from .optim import AdamW
from .prompt import PromptState, assemble, init_from_template, init_gaussian

__version__ = "0.1.0"
