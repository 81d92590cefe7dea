// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the one
// checksum of the project: the message integrity seal and its ARQ
// retransmit check, the checker's level-2 result digests, and every
// checkpoint section. Software table-driven implementation (slice-by-one);
// incremental interface so a section can be checksummed while it streams
// through the writer.
#pragma once

#include <cstddef>
#include <cstdint>

namespace esamr::par {

/// One-shot CRC32C of a buffer.
std::uint32_t crc32c(const void* data, std::size_t nbytes);

/// Incremental: fold `nbytes` more bytes into a running CRC. Start from 0.
std::uint32_t crc32c_update(std::uint32_t crc, const void* data, std::size_t nbytes);

}  // namespace esamr::par
