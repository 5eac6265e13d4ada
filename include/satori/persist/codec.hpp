/**
 * @file
 * The byte-level substrate of satori::persist: a CRC-32 checksum and
 * a pair of little-endian binary encoders (StateWriter/StateReader)
 * that every saveState()/restoreState() hook in the library speaks.
 *
 * The encoding is deliberately boring: fixed-width little-endian
 * integers, doubles as their IEEE-754 bit patterns, strings and
 * vectors as a u64 length followed by the elements. Byte order is
 * packed explicitly (not memcpy'd), so checkpoints written on any
 * platform decode identically on any other - a prerequisite for the
 * byte-identical crash-recovery guarantee.
 *
 * Every StateReader carries a context string (file + section) and a
 * running byte offset; a short or malformed read throws FatalError
 * naming both, so corruption is always diagnosed, never silently
 * decoded into wrong state.
 */

#ifndef SATORI_PERSIST_CODEC_HPP
#define SATORI_PERSIST_CODEC_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace satori {
namespace persist {

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected) of @p data. @p seed
 * chains incremental computations: crc32(b, crc32(a)) ==
 * crc32(a+b).
 */
[[nodiscard]] std::uint32_t crc32(std::string_view data,
                                  std::uint32_t seed = 0);

/** Serializes state into an in-memory byte buffer. */
class StateWriter
{
  public:
    StateWriter() = default;

    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v);
    void putBool(bool v);
    /** IEEE-754 bit pattern; NaN payloads round-trip exactly. */
    void putDouble(double v);
    void putSize(std::size_t v);
    void putString(std::string_view v);
    void putDoubleVec(const std::vector<double>& v);
    void putIntVec(std::span<const int> v);

    /** The encoded bytes so far. */
    [[nodiscard]] const std::string& bytes() const { return buf_; }

    /** Move the encoded bytes out (leaves the writer empty). */
    [[nodiscard]] std::string takeBytes() { return std::move(buf_); }

  private:
    std::string buf_;
};

/**
 * Decodes a byte buffer produced by StateWriter. All reads validate
 * the remaining length; violations throw FatalError carrying the
 * context string and the byte offset of the failed read.
 */
class StateReader
{
  public:
    /**
     * @param data The encoded bytes (not owned; must outlive reads).
     * @param context Diagnostic prefix, e.g. "snap.000120.bin[policy]".
     */
    StateReader(std::string_view data, std::string context);

    [[nodiscard]] std::uint8_t getU8();
    [[nodiscard]] std::uint32_t getU32();
    [[nodiscard]] std::uint64_t getU64();
    [[nodiscard]] std::int64_t getI64();
    [[nodiscard]] bool getBool();
    [[nodiscard]] double getDouble();
    [[nodiscard]] std::size_t getSize();
    [[nodiscard]] std::string getString();
    [[nodiscard]] std::vector<double> getDoubleVec();
    [[nodiscard]] std::vector<int> getIntVec();

    /** Bytes consumed so far. */
    [[nodiscard]] std::size_t offset() const { return pos_; }

    /** True once every byte has been consumed. */
    [[nodiscard]] bool atEnd() const { return pos_ == data_.size(); }

    /**
     * Assert full consumption; throws FatalError naming the context
     * and the number of trailing bytes otherwise. restoreState()
     * implementations call this last, so a version skew that leaves
     * bytes behind is an error, not silence.
     */
    void expectEnd() const;

    /** The diagnostic context this reader reports errors under. */
    [[nodiscard]] const std::string& context() const { return context_; }

  private:
    /** Check @p n more bytes exist; throws FatalError otherwise. */
    void need(std::size_t n, const char* what) const;

    std::string_view data_;
    std::string context_;
    std::size_t pos_ = 0;
};

} // namespace persist
} // namespace satori

#endif // SATORI_PERSIST_CODEC_HPP
