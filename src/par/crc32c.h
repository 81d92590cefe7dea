// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the one
// checksum of the project: the message integrity seal and its ARQ
// retransmit check, the checker's level-2 result digests, and every
// checkpoint section. On x86-64 CPUs with SSE4.2 the `crc32` instruction
// folds eight bytes at a time (chosen once at run time); elsewhere a
// byte-at-a-time table walk gives the same values. Incremental interface so
// a section can be checksummed while it streams through the writer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace esamr::par {

/// One-shot CRC32C of a buffer.
std::uint32_t crc32c(const void* data, std::size_t nbytes);

/// Incremental: fold `nbytes` more bytes into a running CRC. Start from 0.
std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t nbytes);

namespace detail {

/// The two paths behind crc32c_update, exposed so tests can run both.
/// Byte-at-a-time table walk; the only path on CPUs without SSE4.2.
std::uint32_t crc32c_update_table(std::uint32_t crc, const void* data, std::size_t nbytes);
/// SSE4.2 `crc32` instruction; call only where crc32c_have_sse42().
std::uint32_t crc32c_update_sse42(std::uint32_t crc, const void* data, std::size_t nbytes);
/// Whether this CPU runs the SSE4.2 path (checked once per process).
bool crc32c_have_sse42();

}  // namespace detail

}  // namespace esamr::par
