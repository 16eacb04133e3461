// Pieces the command-line tools share: the seeded request input and the
// report lines more than one tool prints, kept in one copy so their output
// stays the same everywhere.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "compiler/session.h"
#include "nn/network.h"
#include "obs/stream_writer.h"

namespace ftdl::tools {

/// A random ±7 input for `net`'s first layer, drawn from Rng(seed).
inline nn::Tensor16 network_input(const nn::Network& net, std::uint64_t seed) {
  const nn::Layer& first = net.layers().front();
  nn::Tensor16 input =
      first.kind == nn::LayerKind::MatMul
          ? nn::Tensor16({static_cast<int>(first.mm_m),
                          static_cast<int>(first.mm_p)})
          : nn::Tensor16({first.in_c, first.in_h, first.in_w});
  Rng rng(seed);
  input.fill_random(rng);
  return input;
}

/// The persistent program cache's disk-tier counters, on one line.
inline void print_cache_stats(const char* indent, const std::string& dir,
                              const compiler::SessionStats& cs) {
  std::printf("%scache %s: disk_hits=%lld disk_misses=%lld "
              "disk_evictions=%lld disk_bytes=%lld\n",
              indent, dir.c_str(), static_cast<long long>(cs.disk_hits),
              static_cast<long long>(cs.disk_misses),
              static_cast<long long>(cs.disk_evictions),
              static_cast<long long>(cs.disk_bytes));
}

/// The closing line of an ftdl-stream-v1 event log written to `path`.
inline void print_stream_stats(const std::string& path,
                               const obs::stream::StreamStats& ss) {
  std::printf("wrote %s (%llu records, %llu chunks, %llu bytes)\n",
              path.c_str(), static_cast<unsigned long long>(ss.records),
              static_cast<unsigned long long>(ss.data_chunks +
                                              ss.string_chunks),
              static_cast<unsigned long long>(ss.bytes_written));
}

}  // namespace ftdl::tools
