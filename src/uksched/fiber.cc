#include "uksched/fiber.hh"

#include <cstdint>
#include <cstring>

namespace flexos::fiber {

extern "C" void flexos_fiber_switch(void **from, void *to);

// Frame layout, from the saved stack pointer upwards: MXCSR (4 bytes)
// and x87 control word (2 bytes) in one 8-byte slot, then r12, r13,
// r14, r15, rbx, rbp, and the return address.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl flexos_fiber_switch
    .hidden flexos_fiber_switch
    .type flexos_fiber_switch, @function
flexos_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    pushq %r15
    .cfi_adjust_cfa_offset 8
    pushq %r14
    .cfi_adjust_cfa_offset 8
    pushq %r13
    .cfi_adjust_cfa_offset 8
    pushq %r12
    .cfi_adjust_cfa_offset 8
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r12
    .cfi_adjust_cfa_offset -8
    popq %r13
    .cfi_adjust_cfa_offset -8
    popq %r14
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    popq %rbx
    .cfi_adjust_cfa_offset -8
    popq %rbp
    .cfi_adjust_cfa_offset -8
    ret
    .cfi_endproc
    .size flexos_fiber_switch, .-flexos_fiber_switch
    .popsection
)");

void
init(Context &ctx, char *base, std::size_t size, void (*entry)())
{
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));

    // The first switch pops this frame and returns into entry() with
    // the stack as a call leaves it (rsp + 8 16-byte aligned). The
    // zero return address and rbp end backtraces there.
    std::uint64_t frame[9] = {};
    frame[0] = mxcsr | std::uint64_t(fpucw) << 32;
    frame[7] = reinterpret_cast<std::uintptr_t>(entry);
    auto top = (reinterpret_cast<std::uintptr_t>(base) + size) &
               ~std::uintptr_t(15);
    auto *sp = reinterpret_cast<char *>(top - sizeof frame);
    std::memcpy(sp, frame, sizeof frame);
    ctx = sp;
}

void
swap(Context &from, Context &to)
{
    flexos_fiber_switch(&from, to);
}

} // namespace flexos::fiber
