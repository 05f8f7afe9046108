"""Runtime conventions shared by the translators and the host executor.

Guest architectural state lives in an in-memory CPU environment (QEMU's
``CPUState``): registers and condition flags each get a word slot at
:data:`ENV_BASE`.  Within a translated block, guest registers are held in
*virtual host registers* named ``g_<reg>`` (the block prologue loads them
from the environment, exits store them back — the paper's "data transfer"
instructions).  ``t0``/``t1``/... are block-local scratch registers.

Translated code addresses guest memory directly (user-mode QEMU identity
mapping), so the environment region is placed outside the workload address
space.
"""

from __future__ import annotations

from repro.isa.operands import Mem, Reg

#: Base address of the emulated CPU environment.
ENV_BASE = 0x00F0_0000

_REG_ORDER = tuple(f"r{i}" for i in range(13)) + ("sp", "lr", "pc")
_FLAG_ORDER = ("N", "Z", "C", "V")

_REG_SLOT = {name: i for i, name in enumerate(_REG_ORDER)}
_FLAG_SLOT = {name: len(_REG_ORDER) + i for i, name in enumerate(_FLAG_ORDER)}

#: One past the last environment byte.
ENV_END = ENV_BASE + 4 * (len(_REG_ORDER) + len(_FLAG_ORDER))

#: Word indices ``[lo, hi)`` of the environment slots (both ends are
#: word-aligned, so word ``w`` is a slot iff ``is_env_address(4 * w)``).
ENV_WORDS = (ENV_BASE // 4, ENV_END // 4)

#: Guest "address" that means "halt the machine" when control reaches it.
HALT_ADDRESS = 0xFFFF_FFF0

#: Label the block-exit stubs jump to (the translator's dispatch loop).
DISPATCH_LABEL = "__dispatch"


def env_reg_addr(name: str) -> int:
    return ENV_BASE + 4 * _REG_SLOT[name]


def env_flag_addr(flag: str) -> int:
    return ENV_BASE + 4 * _FLAG_SLOT[flag]


def env_reg_mem(name: str) -> Mem:
    return Mem(disp=env_reg_addr(name))


def env_flag_mem(flag: str) -> Mem:
    return Mem(disp=env_flag_addr(flag))


def env_pc_mem() -> Mem:
    return env_reg_mem("pc")


def env_pc_word() -> int:
    """Word index of the guest-PC environment slot (dispatch-loop fast path)."""
    return env_reg_addr("pc") // 4


def guest_reg(name: str) -> Reg:
    """The virtual host register holding guest register *name*."""
    return Reg(f"g_{name}")


def scratch_reg(index: int) -> Reg:
    return Reg(f"t{index}")


def is_env_address(addr: int) -> bool:
    return ENV_BASE <= addr < ENV_END
