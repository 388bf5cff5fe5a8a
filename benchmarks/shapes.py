"""Model and workload sizes of the benchmark."""

from dataclasses import dataclass

from dvpt.peft import DvptConfig
from dvpt.vit import VitConfig

# The seed picks one of this many input cases; each case has a committed
# reference loss trajectory (reference.json).
CASES = 32
# Rounds of the fine-tuning loop whose losses the reference pins.
REFERENCE_ROUNDS = 2


@dataclass(frozen=True)
class FinetuneShape:
    vit: VitConfig
    dvpt: DvptConfig
    batch_size: int
    train_count: int
    lr: float
    setups_per_round: int  # timed set-ups before each round after the first


@dataclass(frozen=True)
class ServeShape:
    vit: VitConfig
    dvpt: DvptConfig
    tasks: int
    images: int
    setup_reps: int


# The ROADMAP's mid config.
FINETUNE = FinetuneShape(
    vit=VitConfig(image_h=32, image_w=32, channels=1, patch_size=4,
                  embed_dim=128, depth=6, heads=4, num_classes=5),
    dvpt=DvptConfig(num_prompts=16, hidden_dim=8),
    batch_size=16, train_count=64, lr=1e-3, setups_per_round=8,
)

# ViT-B/16 with the paper's m=50 prompts and d'=20 bottleneck.
SERVE = ServeShape(
    vit=VitConfig(image_h=224, image_w=224, channels=3, patch_size=16,
                  embed_dim=768, depth=12, heads=12, num_classes=5),
    dvpt=DvptConfig(num_prompts=50, hidden_dim=20),
    tasks=3, images=2, setup_reps=3,
)
