// A fixed reference kernel that measures how fast the machine is running
// right now.
//
// On a shared machine the same pass of the same binary can take 1.5x as
// long for minutes at a time, in CPU time as well as in wall time: the
// neighbours slow the core down rather than take it away. The runner times
// this kernel before and after every pass (and on control-30x200 between
// every two control periods), and divides host times by
// (kernel time / kReferenceSeconds), so an end-to-end host-time
// metric reads as time on a machine running at one fixed speed. The kernel
// is code of the benchmark, not of the library, so a change to the library
// cannot move it.
#pragma once

namespace slatebench {

// Kernel CPU time at the reference speed: a scaled host time is in seconds
// of a machine that runs the kernel in exactly this long.
constexpr double kReferenceSeconds = 0.008;

// Runs the kernel once; returns the CPU seconds the calling thread spent.
[[nodiscard]] double time_reference_kernel();

}  // namespace slatebench
