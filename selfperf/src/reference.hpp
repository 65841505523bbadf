// The reference kernel: a fixed piece of work that does not depend on
// dtnsim, timed right before every benchmarked call and every set-up
// sample. On a shared host the same call runs at different speeds as the
// neighbours come and go; dividing each call's time by the reference time
// next to it takes most of that out (README.md, "Reading the numbers").
//
// The kernel is part of the benchmark's definition: changing it, or
// kReferenceS, changes every normalised time, so results taken before and
// after such a change are not comparable.
#pragma once

namespace selfperf {

// Nominal time of one reference_sample_s(): what the kernel reads, roughly,
// on a quiet host of the kind the benchmark was developed on (4 vCPUs of a
// shared Sapphire Rapids KVM guest, GCC 12, -O3). A normalised time is a
// host time times kReferenceS / (the reference time next to it): seconds on
// a host where the kernel takes exactly kReferenceS.
inline constexpr double kReferenceS = 0.010;

// Runs the reference kernel once and returns its host seconds: an ordered
// map churned in place (pointer chasing and small allocations) followed by
// a small discrete-event loop over a binary heap (branches, floating point,
// short-lived vectors) — the two kinds of work the simulator does.
double reference_sample_s();

// `host_s` expressed at the nominal reference speed.
inline double normalised(double host_s, double reference_s) {
  return host_s * kReferenceS / reference_s;
}

}  // namespace selfperf
