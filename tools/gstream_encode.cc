// gstream_encode — write a graph update stream as a checksummed `.gsb`
// binary file (DESIGN.md §10), the durable input of gstream_cli's --gsb
// replay mode and of the crash-recovery protocol.
//
// Usage:
//   gstream_encode --out=FILE.gsb [--dataset=snb|taxi|bio] [--updates=N]
//                  [--seed=N] [--stream=FILE.csv] [--block-records=N]
//                  [--ts-start=N --ts-step=N]
//
// The stream comes from one of the built-in generators (--dataset, the
// paper's SNB / taxi / BioGRID workloads) or from a CSV edge stream
// (--stream, same syntax as gstream_cli). --block-records bounds the blast
// radius of one corrupt block: smaller blocks quarantine fewer records per
// CRC mismatch at the cost of per-block header overhead (bench/micro_ingest
// sweeps this).
//
// --ts-start/--ts-step stamp synthetic event timestamps (record i gets
// ts-start + i * ts-step), upgrading the file to the timestamped `.gsb` v2
// layout for gstream_cli's --window-policy sliding-window replay. Without
// them the output is the byte-identical v1 format.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "ingest/csv_stream.h"
#include "ingest/gsb_writer.h"
#include "workload/bio.h"
#include "workload/snb.h"
#include "workload/taxi.h"

using namespace gstream;

namespace {

workload::Workload MakeDataset(const std::string& name, size_t updates,
                               uint64_t seed) {
  if (name == "taxi") {
    workload::TaxiConfig c;
    c.num_updates = updates;
    c.seed = seed;
    return workload::GenerateTaxi(c);
  }
  if (name == "bio") {
    workload::BioConfig c;
    c.num_updates = updates;
    c.seed = seed;
    return workload::GenerateBio(c);
  }
  workload::SnbConfig c;
  c.num_updates = updates;
  c.seed = seed;
  return workload::GenerateSnb(c);
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: gstream_encode --out=FILE.gsb [--dataset=snb|taxi|bio] "
      "[--updates=N] [--seed=N] [--stream=FILE.csv] [--block-records=N] "
      "[--ts-start=N --ts-step=N]";
  Flags flags = Flags::Parse(argc, argv);
  flags.RejectUnknown({"out", "dataset", "updates", "seed", "stream",
                       "block-records", "ts-start", "ts-step"},
                      usage);
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "%s\n", usage);
    return 2;
  }
  const std::string dataset = flags.GetString("dataset", "snb");
  const size_t updates =
      static_cast<size_t>(flags.GetPositiveInt("updates", 20'000));
  const uint64_t seed =
      static_cast<uint64_t>(flags.GetIntAtLeast("seed", 42, 0));

  ingest::GsbWriterOptions options;
  options.records_per_block =
      static_cast<size_t>(flags.GetPositiveInt("block-records", 4096));

  workload::Workload w;
  const std::string stream_file = flags.GetString("stream", "");
  if (!stream_file.empty()) {
    w.name = stream_file;
    w.interner = std::make_shared<StringInterner>();
    w.stream = UpdateStream(w.interner);
    if (!ingest::LoadCsvStream(stream_file, *w.interner, w.stream)) return 2;
  } else {
    w = MakeDataset(dataset, updates, seed);
  }

  std::vector<EdgeUpdate> records = w.stream.updates();
  const uint64_t ts_start =
      static_cast<uint64_t>(flags.GetIntAtLeast("ts-start", 0, 0));
  const uint64_t ts_step =
      static_cast<uint64_t>(flags.GetIntAtLeast("ts-step", 0, 0));
  if (ts_start > 0 || ts_step > 0) {
    for (size_t i = 0; i < records.size(); ++i)
      records[i].ts = ts_start + static_cast<uint64_t>(i) * ts_step;
  }

  const std::vector<uint8_t> image =
      ingest::EncodeGsb(*w.interner, records, options);
  std::string error;
  if (!ingest::AtomicWriteFile(out, image.data(), image.size(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %zu records, %zu dict strings, %zu bytes "
              "(%zu records/block)\n",
              out.c_str(), w.stream.size(), w.interner->size(), image.size(),
              options.records_per_block);
  return 0;
}
