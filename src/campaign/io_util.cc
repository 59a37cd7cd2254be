/**
 * @file
 * Crash-safe whole-file IO for campaign directories: CRC-32, the
 * artifact integrity trailer, and write-to-temp + fsync +
 * atomic-rename. The byte-level primitives (bio::putU64 / Reader)
 * live in corpus_io.cc with the formats that use them.
 */

#include "campaign/io_util.hh"

#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/faults.hh"

namespace dejavuzz::campaign {

namespace fs = std::filesystem;

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    // CRC-32/ISO-HDLC (the zlib polynomial), reflected, table-driven.
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ ((c & 1) ? 0xedb88320u : 0);
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = ~seed;
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

namespace {

void
putLe64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putLe32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

uint64_t
getLe64(const char *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    return v;
}

uint32_t
getLe32(const char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
    return v;
}

bool
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

std::string
withTrailer(const std::string &payload, uint64_t generation)
{
    std::string out = payload;
    out.reserve(payload.size() + kTrailerBytes);
    out.append(kTrailerMagic, 8);
    putLe64(out, generation);
    putLe64(out, payload.size());
    putLe32(out, crc32(payload.data(), payload.size()));
    putLe32(out, 0); // pad to 32 bytes
    return out;
}

bool
splitTrailer(const std::string &file, std::string &payload,
             uint64_t &generation, std::string *error)
{
    if (file.size() < kTrailerBytes)
        return setError(error, "file shorter than integrity trailer");
    const char *t = file.data() + file.size() - kTrailerBytes;
    if (std::memcmp(t, kTrailerMagic, 8) != 0)
        return setError(error, "bad integrity-trailer magic");
    const uint64_t gen = getLe64(t + 8);
    const uint64_t len = getLe64(t + 16);
    const uint32_t crc = getLe32(t + 24);
    if (len != file.size() - kTrailerBytes)
        return setError(error,
                        "trailer payload length does not match file");
    if (crc32(file.data(), len) != crc)
        return setError(error, "payload CRC mismatch (torn file)");
    payload.assign(file.data(), len);
    generation = gen;
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::string &data,
                std::string *error)
{
    const std::string tmp = path + ".tmp";

    if (shouldFail(Fault::Enospc)) {
        std::error_code ec;
        fs::remove(tmp, ec);
        return setError(error, "cannot write " + tmp +
                                   ": No space left on device "
                                   "(injected)");
    }

    // An injected short write or torn rename simulates a crash mid
    // persistence: the file ends up truncated and the function
    // *reports success*, exactly as a power cut after a buffered
    // write would look. Recovery must catch it via the CRC trailer.
    const bool short_write = shouldFail(Fault::ShortWrite);
    const bool torn_rename = shouldFail(Fault::TornRename);
    const size_t write_bytes =
        short_write ? data.size() / 2 : data.size();

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return setError(error, "cannot create " + tmp + ": " +
                                   std::strerror(errno));
    size_t off = 0;
    while (off < write_bytes) {
        ssize_t n =
            ::write(fd, data.data() + off, write_bytes - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int saved = errno;
            ::close(fd);
            std::error_code ec;
            fs::remove(tmp, ec);
            return setError(error, "cannot write " + tmp + ": " +
                                       std::strerror(saved));
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int saved = errno;
        ::close(fd);
        std::error_code ec;
        fs::remove(tmp, ec);
        return setError(error, "cannot fsync " + tmp + ": " +
                                   std::strerror(saved));
    }
    ::close(fd);

    if (torn_rename) {
        // The rename "happened" but the target is truncated — the
        // torn state a non-atomic filesystem could leave behind.
        std::ofstream torn(path,
                           std::ios::binary | std::ios::trunc);
        torn.write(data.data(),
                   static_cast<std::streamsize>(data.size() / 2));
        torn.close();
        std::error_code ec;
        fs::remove(tmp, ec);
        return true;
    }

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        std::error_code ec;
        fs::remove(tmp, ec);
        return setError(error, "cannot rename " + tmp + " -> " +
                                   path + ": " +
                                   std::strerror(saved));
    }

    // Durable only once the directory entry itself is on disk.
    const std::string parent = fs::path(path).parent_path().string();
    int dfd = ::open(parent.empty() ? "." : parent.c_str(),
                     O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

bool
readWholeFile(const std::string &path, std::string &out,
              std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return setError(error, "cannot open " + path);
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad())
        return setError(error, "cannot read " + path);
    out = buf.str();
    return true;
}

std::string
bio::testCaseToHex(const core::TestCase &tc)
{
    static const char digits[] = "0123456789abcdef";
    std::ostringstream blob;
    writeTestCase(blob, tc);
    const std::string bytes = blob.str();
    std::string hex;
    hex.reserve(bytes.size() * 2);
    for (unsigned char byte : bytes) {
        hex.push_back(digits[byte >> 4]);
        hex.push_back(digits[byte & 0xf]);
    }
    return hex;
}

bool
bio::testCaseFromHex(std::string_view hex, core::TestCase &tc,
                     std::string &error)
{
    if (hex.size() % 2 != 0) {
        error = "odd-length hex blob";
        return false;
    }
    auto nibble = [](char c) {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    };
    std::string bytes;
    bytes.reserve(hex.size() / 2);
    for (size_t i = 0; i < hex.size(); i += 2) {
        const int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
        if (hi < 0 || lo < 0) {
            error = "bad hex digit in blob";
            return false;
        }
        bytes.push_back(static_cast<char>((hi << 4) | lo));
    }
    std::istringstream blob(bytes);
    Reader reader{blob, {}};
    if (!readTestCase(reader, tc)) {
        error = reader.error;
        return false;
    }
    if (blob.peek() != std::istream::traits_type::eof()) {
        error = "trailing bytes after the test case";
        return false;
    }
    return true;
}

} // namespace dejavuzz::campaign
