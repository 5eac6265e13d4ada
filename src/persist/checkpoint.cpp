#include "satori/persist/checkpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "satori/common/logging.hpp"
#include "satori/obs/obs.hpp"
#include "satori/common/io.hpp"

namespace satori {
namespace persist {

namespace {

constexpr std::string_view kManifestMagic = "SATMAN01";
constexpr std::uint32_t kManifestVersion = 1;
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kWalName = "wal.bin";

[[nodiscard]] std::string
encodeManifest(const std::string& fingerprint)
{
    StateWriter w;
    for (const char c : kManifestMagic)
        w.putU8(static_cast<std::uint8_t>(c));
    w.putU32(kManifestVersion);
    w.putString(fingerprint);
    w.putU32(crc32(w.bytes()));
    return w.takeBytes();
}

[[nodiscard]] std::string
decodeManifest(const std::string& path)
{
    const std::string data = readFile(path);
    if (data.size() < 16 ||
        std::string_view(data).substr(0, 8) != kManifestMagic)
        SATORI_FATAL(path + ": bad magic at offset 0 (not a SATORI "
                     "checkpoint manifest)");
    const std::uint32_t stored_crc =
        crc32(std::string_view(data).substr(0, data.size() - 4));
    StateReader r(std::string_view(data).substr(8), path);
    const std::uint32_t version = r.getU32();
    if (version != kManifestVersion)
        SATORI_FATAL(path + ": manifest version " +
                     std::to_string(version) + " at offset 8, expected " +
                     std::to_string(kManifestVersion));
    std::string fingerprint = r.getString();
    const std::uint32_t crc = r.getU32();
    if (crc != stored_crc)
        SATORI_FATAL(path + ": manifest CRC mismatch at offset " +
                     std::to_string(data.size() - 4));
    r.expectEnd();
    return fingerprint;
}

} // namespace

Checkpointer::Checkpointer(CheckpointOptions options,
                           std::string fingerprint)
    : options_(std::move(options)), fingerprint_(std::move(fingerprint)),
      fingerprint_crc_(crc32(fingerprint_))
{
    SATORI_ASSERT(!options_.dir.empty());
}

std::string
Checkpointer::snapshotPath(std::uint64_t step) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "snap.%010llu.bin",
                  static_cast<unsigned long long>(step));
    return options_.dir + "/" + name;
}

void
Checkpointer::prepare()
{
    SATORI_ASSERT(!prepared_);
    if (options_.resume)
        prepareResume();
    else
        prepareFresh();
    prepared_ = true;
}

void
Checkpointer::prepareFresh()
{
    validateOutputDir("--checkpoint-dir", options_.dir);
    // A fresh run owns the directory: drop any previous run's state
    // so a later --resume cannot mix two histories.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name == kManifestName || name == kWalName ||
            name.rfind("snap.", 0) == 0)
            std::filesystem::remove(entry.path(), ec);
    }
    atomicWriteFile(options_.dir + "/" + kManifestName,
                    encodeManifest(fingerprint_));
    wal_ = std::make_unique<WalWriter>(
        WalWriter::create(options_.dir + "/" + kWalName,
                          fingerprint_crc_));
}

void
Checkpointer::prepareResume()
{
    SATORI_OBS_SPAN("persist.recover");
    const std::string manifest_path = options_.dir + "/" + kManifestName;
    if (!pathExists(manifest_path))
        SATORI_FATAL("--resume: nothing to resume: no MANIFEST in '" +
                     options_.dir + "'");
    const std::string stored = decodeManifest(manifest_path);
    if (stored != fingerprint_)
        SATORI_FATAL(manifest_path + ": fingerprint mismatch:\n"
                     "  checkpoint: " + stored + "\n"
                     "  this run:   " + fingerprint_ + "\n"
                     "resume must use the same mix/policy/seed/platform/"
                     "fault arguments as the original run");

    const std::string wal_path = options_.dir + "/" + kWalName;
    std::uint64_t valid_bytes = 0;
    if (pathExists(wal_path)) {
        WalReadResult wal = readWal(wal_path, fingerprint_crc_);
        wal_records_ = std::move(wal.records);
        valid_bytes = wal.valid_bytes;
        if (wal.torn_tail)
            std::fprintf(stderr,
                         "satori-persist: %s: torn tail after %llu valid "
                         "bytes (%zu records) - expected after a crash "
                         "mid-append; truncating\n",
                         wal_path.c_str(),
                         static_cast<unsigned long long>(valid_bytes),
                         wal_records_.size());
        wal_ = std::make_unique<WalWriter>(
            WalWriter::resume(wal_path, valid_bytes));
    } else {
        // Killed between MANIFEST install and WAL creation: nothing
        // was logged, so the run simply starts over from interval 0.
        wal_ = std::make_unique<WalWriter>(
            WalWriter::create(wal_path, fingerprint_crc_));
    }

    // Newest snapshot wins; an invalid newest snapshot is a hard
    // error (corruption is never silently skipped).
    std::uint64_t best_step = 0;
    bool found = false;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("snap.", 0) != 0 || name.size() < 10 ||
            name.substr(name.size() - 4) != ".bin")
            continue;
        const std::string digits =
            name.substr(5, name.size() - 5 - 4);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        const std::uint64_t step =
            std::strtoull(digits.c_str(), nullptr, 10);
        if (!found || step > best_step) {
            best_step = step;
            found = true;
        }
    }
    if (found) {
        snapshot_ = std::make_unique<SnapshotReader>(
            snapshotPath(best_step), fingerprint_crc_);
        if (snapshot_->step() != best_step)
            SATORI_FATAL(snapshot_->path() + ": header step " +
                         std::to_string(snapshot_->step()) +
                         " disagrees with the file name");
        if (snapshot_->step() > wal_records_.size())
            SATORI_FATAL(snapshot_->path() + ": snapshot step " +
                         std::to_string(snapshot_->step()) +
                         " exceeds the " +
                         std::to_string(wal_records_.size()) +
                         " WAL records - WAL and snapshots are "
                         "inconsistent");
        resume_step_ = static_cast<std::size_t>(snapshot_->step());
    }
}

const SnapshotReader&
Checkpointer::snapshot() const
{
    SATORI_ASSERT(snapshot_ != nullptr);
    return *snapshot_;
}

void
Checkpointer::pruneSnapshots() const
{
    std::vector<std::uint64_t> steps;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(options_.dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("snap.", 0) != 0 ||
            name.size() < 10 || name.substr(name.size() - 4) != ".bin")
            continue;
        const std::string digits = name.substr(5, name.size() - 5 - 4);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        steps.push_back(std::strtoull(digits.c_str(), nullptr, 10));
    }
    if (steps.size() <= options_.keep_snapshots)
        return;
    std::sort(steps.begin(), steps.end());
    const std::size_t drop = steps.size() - options_.keep_snapshots;
    for (std::size_t i = 0; i < drop; ++i)
        std::filesystem::remove(snapshotPath(steps[i]), ec);
}

void
Checkpointer::onIntervalEnd(
    std::size_t step, const IntervalRecord& record,
    const std::function<void(SnapshotWriter&)>& save_state)
{
    SATORI_ASSERT(prepared_);
    const bool new_ground = step >= wal_records_.size();
    if (new_ground) {
        SATORI_OBS_SPAN("persist.wal.append");
        if (step == options_.kill_at && options_.kill_torn) {
            wal_->appendTorn(record);
            std::_Exit(137); // simulated SIGKILL mid-append
        }
        wal_->append(record);
        SATORI_OBS_METRIC(persist_wal_records.inc());
    }
    if (step == options_.kill_at)
        std::_Exit(137); // simulated SIGKILL after the append
    const std::size_t completed = step + 1;
    if (new_ground && options_.every > 0 &&
        completed % options_.every == 0) {
        SATORI_OBS_SPAN("persist.snapshot");
        SnapshotWriter snap;
        save_state(snap);
        snap.writeTo(snapshotPath(completed), fingerprint_crc_,
                     completed);
        SATORI_OBS_METRIC(persist_snapshots.inc());
        SATORI_OBS_METRIC(persist_snapshot_bytes.inc(
            static_cast<std::uint64_t>(snap.payloadBytes())));
        pruneSnapshots();
    }
}

} // namespace persist
} // namespace satori
