/**
 * @file
 * uksched's fiber context switch (internal to uksched).
 *
 * On x86-64 a context is the fiber's saved stack pointer: the switch
 * pushes the callee-saved registers (rbx, rbp, r12-r15) and the
 * MXCSR/x87 control words onto the outgoing stack and pops them off
 * the incoming one. Everything else is caller-saved under the SysV
 * ABI, so the compiler has already spilled it around the call. The
 * signal mask is not part of a context: the simulator installs no
 * signal handlers and never changes the mask, so the rt_sigprocmask
 * syscall glibc's swapcontext makes on every switch buys nothing.
 * The switch is x86-64 assembly; other architectures do not build.
 */

#ifndef FLEXOS_UKSCHED_FIBER_HH
#define FLEXOS_UKSCHED_FIBER_HH

#include <cstddef>

#if !defined(__x86_64__)
#error "uksched's fiber switch is implemented for x86-64 only"
#endif

namespace flexos::fiber {

/** A suspended context: its saved stack pointer. */
using Context = void *;

/**
 * Prepare ctx so that the first switch into it runs entry() on the
 * stack [base, base + size), with the caller's current floating-point
 * control state. entry must never return.
 */
void init(Context &ctx, char *base, std::size_t size, void (*entry)());

/** Save the running context into from and resume to. */
void swap(Context &from, Context &to);

} // namespace flexos::fiber

#endif // FLEXOS_UKSCHED_FIBER_HH
