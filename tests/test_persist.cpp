// Checkpoint & deterministic resume (DESIGN.md D9).
//
// The correctness criterion is replay equivalence: a run restored from a
// checkpoint must be bit-for-bit indistinguishable from one that never
// stopped — same per-round traces, same RunMetrics, same campaign report
// bytes — at any worker count. The battery checkpoints at every
// interesting phase (round 1, mid-stabilization, mid-merge, quiescent,
// inside an active loss/partition window with pending multi-round holds),
// restores, and compares against the uninterrupted run. Corrupt, truncated,
// and stale blobs must fail loudly, never resume quietly wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "core/network.hpp"
#include "graph/generators.hpp"
#include "persist/fields.hpp"
#include "persist/io.hpp"
#include "sim/mailbox.hpp"
#include "sim/scheduler.hpp"
#include "util/log.hpp"
#include "verify/fuzzer.hpp"
#include "verify/minimize.hpp"
#include "verify/oracle.hpp"

namespace chs {
namespace {

using campaign::Scenario;
using core::StabEngine;

std::unique_ptr<StabEngine> tree_engine(std::size_t hosts = 12,
                                        std::uint64_t guests = 64,
                                        std::uint64_t seed = 3,
                                        std::uint32_t delay = 1) {
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(seed);
  auto ids = graph::sample_ids(hosts, guests, rng);
  core::Params p;
  p.n_guests = guests;
  p.delay_slack = delay;
  auto eng = core::make_engine(
      graph::make_family(graph::Family::kRandomTree, ids, rng), p, seed);
  if (delay > 1) eng->set_max_message_delay(delay);
  return eng;
}

std::vector<std::uint8_t> engine_blob(StabEngine& eng) {
  persist::Writer w(persist::BlobKind::kEngine);
  eng.checkpoint(w);
  return w.take();
}

persist::Status restore_engine(StabEngine& eng,
                               const std::vector<std::uint8_t>& blob) {
  persist::Reader r(blob);
  if (auto s = r.expect_header(persist::BlobKind::kEngine); !s.ok) return s;
  if (auto s = eng.restore(r); !s.ok) return s;
  return r.expect_end();
}

/// Everything the determinism contract pins about a finished run.
struct Fingerprint {
  std::vector<std::size_t> trace;
  std::uint64_t messages = 0, edge_adds = 0, edge_dels = 0, resets = 0;
  std::uint64_t round = 0, nodes_stepped = 0, snapshots = 0;
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::vector<int> phases;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const StabEngine& eng) {
  Fingerprint f;
  f.trace = eng.metrics().max_degree_trace();
  f.messages = eng.metrics().messages();
  f.edge_adds = eng.metrics().edge_adds();
  f.edge_dels = eng.metrics().edge_dels();
  f.resets = core::total_resets(eng);
  f.round = eng.round();
  f.nodes_stepped = eng.metrics().nodes_stepped();
  f.snapshots = eng.metrics().snapshots_published();
  f.edges = eng.graph().edge_list();
  for (auto id : eng.graph().ids()) {
    f.phases.push_back(static_cast<int>(eng.state(id).phase));
  }
  return f;
}

/// Byte-level equality for results: serialize through the persist archive
/// (every field, degree_trace included) and compare the blobs.
std::vector<std::uint8_t> result_bytes(const campaign::JobResult& r) {
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("TEST"));
  w(r);
  w.end_section();
  return w.take();
}

// --- engine replay equivalence ----------------------------------------------

TEST(EngineCheckpoint, ResumeIsBitForBitAtEveryPhaseAndWorkerCount) {
  // The uninterrupted reference run: stabilize from a cold random tree and
  // keep going a while past convergence (quiescent tail).
  auto ref = tree_engine();
  std::uint64_t converged_at = 0;
  std::uint64_t mid_merge = 0;
  for (std::uint64_t r = 0; r < 20000; ++r) {
    if (mid_merge == 0) {
      for (auto id : ref->graph().ids()) {
        if (ref->state(id).merge.stage == stabilizer::MergeStage::kZip) {
          mid_merge = ref->round();
          break;
        }
      }
    }
    if (core::is_converged(*ref)) {
      converged_at = ref->round();
      break;
    }
    ref->step_round();
  }
  ASSERT_GT(converged_at, 10u) << "fixture never converged";
  ASSERT_GT(mid_merge, 0u) << "fixture never entered a zip";
  const std::uint64_t total = converged_at + 32;
  while (ref->round() < total) ref->step_round();
  const Fingerprint want = fingerprint(*ref);

  const std::uint64_t checkpoints[] = {1, converged_at / 2, mid_merge,
                                       converged_at + 8};
  for (const std::uint64_t at : checkpoints) {
    // Re-run to the checkpoint round, snapshot, and continue the *same*
    // engine to the end: taking a checkpoint must not perturb the run.
    auto donor = tree_engine();
    while (donor->round() < at) donor->step_round();
    const auto blob = engine_blob(*donor);
    while (donor->round() < total) donor->step_round();
    EXPECT_EQ(fingerprint(*donor), want) << "checkpoint perturbed round " << at;

    for (const std::size_t workers : {1u, 2u, 8u}) {
      auto resumed = tree_engine();
      ASSERT_TRUE(restore_engine(*resumed, blob).ok);
      EXPECT_EQ(resumed->round(), at);
      resumed->set_worker_threads(workers);
      while (resumed->round() < total) resumed->step_round();
      EXPECT_EQ(fingerprint(*resumed), want)
          << "resume diverged: checkpoint round " << at << ", " << workers
          << " workers";
    }
  }
}

TEST(EngineCheckpoint, RestoreOverwritesADivergedEngine) {
  // restore() must be a full overwrite, not a merge: feed it an engine of
  // the same recipe that has already run somewhere else entirely.
  auto a = tree_engine();
  for (int r = 0; r < 50; ++r) a->step_round();
  const auto blob = engine_blob(*a);
  for (int r = 0; r < 100; ++r) a->step_round();
  const Fingerprint want = fingerprint(*a);

  auto b = tree_engine();
  for (int r = 0; r < 700; ++r) b->step_round();  // far past the snapshot
  ASSERT_TRUE(restore_engine(*b, blob).ok);
  EXPECT_EQ(b->round(), 50u);
  for (int r = 0; r < 100; ++r) b->step_round();
  EXPECT_EQ(fingerprint(*b), want);
}

TEST(EngineCheckpoint, QuiescentResumeStaysQuiescent) {
  auto eng = tree_engine(10, 64, 1);
  auto [rounds, ok] = eng->run_until(
      [](StabEngine& e) { return core::is_converged(e); }, 20000);
  ASSERT_TRUE(ok);
  for (int r = 0; r < 64; ++r) eng->step_round();
  const std::uint64_t streak = eng->quiescent_streak();
  const auto blob = engine_blob(*eng);

  auto resumed = tree_engine(10, 64, 1);
  ASSERT_TRUE(restore_engine(*resumed, blob).ok);
  EXPECT_EQ(resumed->quiescent_streak(), streak);
  resumed->step_round();
  eng->step_round();
  EXPECT_EQ(resumed->quiescent_streak(), eng->quiescent_streak());
  EXPECT_EQ(resumed->metrics().nodes_stepped(), eng->metrics().nodes_stepped());
}

// --- loud failure on bad blobs ----------------------------------------------

TEST(EngineCheckpoint, CorruptBlobFailsLoudlyAndLeavesEngineUntouched) {
  auto eng = tree_engine();
  for (int r = 0; r < 30; ++r) eng->step_round();
  auto blob = engine_blob(*eng);

  auto victim = tree_engine();
  for (int r = 0; r < 5; ++r) victim->step_round();
  const Fingerprint before = fingerprint(*victim);

  // Flip one payload byte in the middle of the blob: some section CRC
  // breaks, restore reports corruption, the engine is untouched.
  auto bad = blob;
  bad[bad.size() / 2] ^= 0x40;
  const auto s = restore_engine(*victim, bad);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("CRC"), std::string::npos) << s.error;
  EXPECT_EQ(fingerprint(*victim), before);

  // Truncation fails loudly too.
  auto cut = blob;
  cut.resize(cut.size() - 9);
  EXPECT_FALSE(restore_engine(*victim, cut).ok);
  EXPECT_EQ(fingerprint(*victim), before);

  // A wrong-kind header is rejected before any section is read.
  persist::Reader r(blob);
  EXPECT_FALSE(r.expect_header(persist::BlobKind::kCampaign).ok);

  // Bad magic: not a checkpoint at all.
  auto junk = blob;
  junk[0] ^= 0xff;
  persist::Reader jr(junk);
  const auto js = jr.expect_header(persist::BlobKind::kEngine);
  ASSERT_FALSE(js.ok);
  EXPECT_NE(js.error.find("magic"), std::string::npos);
}

TEST(EngineCheckpoint, OtherFormatVersionIsRejected) {
  // The header's version word (u32 at byte 8) sits outside every section
  // CRC. A blob from a build with another layout — older or newer — must be
  // refused by the header check before any section is read.
  auto eng = tree_engine();
  for (int r = 0; r < 30; ++r) eng->step_round();
  const auto blob = engine_blob(*eng);

  auto victim = tree_engine();
  for (int r = 0; r < 5; ++r) victim->step_round();
  const Fingerprint before = fingerprint(*victim);

  for (const std::uint32_t version :
       {persist::kFormatVersion - 1, persist::kFormatVersion + 1}) {
    auto other = blob;
    std::memcpy(other.data() + 8, &version, sizeof version);
    const auto s = restore_engine(*victim, other);
    ASSERT_FALSE(s.ok) << "version " << version;
    EXPECT_NE(s.error.find("unsupported format version"), std::string::npos)
        << s.error;
    EXPECT_FALSE(victim->restore_blob(other).ok);
    EXPECT_EQ(fingerprint(*victim), before);
  }
}

TEST(EngineCheckpoint, HostSetMismatchIsRejected) {
  auto a = tree_engine(12, 64, 3);
  const auto blob = engine_blob(*a);
  auto other = tree_engine(12, 64, 4);  // different seed -> different ids
  const auto s = restore_engine(*other, blob);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("host set"), std::string::npos) << s.error;
}

TEST(EngineCheckpoint, StaleLongerProtSectionLeavesEngineUntouched) {
  // A blob written by a build with MORE protocol knobs (a format drift
  // that forgot the version bump) passes every CRC; close_section catches
  // the leftover bytes — and the engine, protocol state included, must be
  // exactly as it was (the PROT read is staged in a copy).
  auto eng = tree_engine();
  for (int r = 0; r < 20; ++r) eng->step_round();
  const auto blob = engine_blob(*eng);

  // Rebuild the blob with an 8-byte-longer PROT payload and a valid CRC.
  // PROT is the final section: walk the framing to find it.
  std::size_t at = 16;  // header
  std::size_t prot_at = 0;
  while (at < blob.size()) {
    prot_at = at;
    std::uint64_t len;
    std::memcpy(&len, blob.data() + at + 4, sizeof len);
    at += 4 + 8 + static_cast<std::size_t>(len) + 4;
  }
  std::vector<std::uint8_t> stale(blob.begin(),
                                  blob.begin() + static_cast<std::ptrdiff_t>(
                                                     prot_at + 4));
  const std::uint64_t new_len = 9;  // frozen byte + 8 bytes of "new knob"
  const std::uint8_t payload[9] = {blob[prot_at + 12], 0, 0, 0, 0, 0, 0, 0, 0};
  stale.insert(stale.end(), reinterpret_cast<const std::uint8_t*>(&new_len),
               reinterpret_cast<const std::uint8_t*>(&new_len) + 8);
  stale.insert(stale.end(), payload, payload + 9);
  const std::uint32_t crc = persist::crc32(payload, 9);
  stale.insert(stale.end(), reinterpret_cast<const std::uint8_t*>(&crc),
               reinterpret_cast<const std::uint8_t*>(&crc) + 4);

  auto victim = tree_engine();
  victim->protocol().set_frozen(true);  // the knob the PROT read touches
  for (int r = 0; r < 5; ++r) victim->step_round();
  const Fingerprint before = fingerprint(*victim);
  const auto s = restore_engine(*victim, stale);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("not fully consumed"), std::string::npos) << s.error;
  EXPECT_TRUE(victim->protocol().frozen());  // knob not half-applied
  EXPECT_EQ(fingerprint(*victim), before);
}

TEST(Reader, ContainerCountsCannotAmplifyAllocation) {
  // A CRC-valid section claiming a large element count backed by few bytes
  // must fail after consuming those bytes — allocation stays proportional
  // to the payload, not to count x sizeof(element).
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("TEST"));
  const std::uint64_t claimed = 16;  // <= payload bytes, so the count guard
  w(claimed);                        // alone does not reject it
  const std::uint8_t junk[16] = {};
  w.raw(junk, sizeof junk);
  w.end_section();
  const auto blob = w.take();

  persist::Reader r(blob);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
  ASSERT_TRUE(r.open_section(persist::tag4("TEST")).ok);
  std::vector<std::string> v;
  r(v);
  EXPECT_FALSE(r.ok());      // ran out of payload mid-way
  EXPECT_LE(v.size(), 3u);   // grew only as far as real bytes allowed
}

TEST(EngineCheckpoint, DeltaRelabelledAsFullIsRejected) {
  // Full and delta blobs share one layout; a full blob is the delta from
  // nothing. The header kind is outside every section CRC, so a delta
  // relabelled as kEngine passes framing — restore must still refuse it
  // rather than leave the untouched nodes' stale state in place.
  // Converged first: the delta then carries no topology, and is plainly
  // not a full blob whatever its touched set.
  auto eng = tree_engine(10, 64, 1);
  ASSERT_TRUE(eng->run_until(
                     [](StabEngine& e) { return core::is_converged(e); }, 20000)
                  .second);
  (void)eng->checkpoint_blob();
  eng->step_round();
  auto delta = eng->checkpoint_delta_blob();
  const auto kind = static_cast<std::uint32_t>(persist::BlobKind::kEngine);
  std::memcpy(delta.data() + 12, &kind, sizeof kind);

  auto victim = tree_engine(10, 64, 1);
  const Fingerprint before = fingerprint(*victim);
  const auto s = victim->restore_blob(delta);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("every node"), std::string::npos) << s.error;
  EXPECT_EQ(fingerprint(*victim), before);
}

TEST(Describe, NamesKindAndSections) {
  auto eng = tree_engine();
  const auto blob = engine_blob(*eng);
  const std::string d = persist::describe(blob);
  EXPECT_NE(d.find("kind engine"), std::string::npos) << d;
  for (const char* tag : {"HEAD", "ENGN", "TOPO", "CALS", "MAIL", "NODE",
                          "METR", "PROT"}) {
    EXPECT_NE(d.find(tag), std::string::npos) << d;
  }
  EXPECT_EQ(d.find("MISMATCH"), std::string::npos);
}

// --- calendar queue across the lap boundary ---------------------------------

TEST(CalendarQueueCheckpoint, RoundTripsAcrossLapSharing) {
  // Cap the ring at 4 buckets and schedule events many laps apart, so
  // several due rounds share buckets. Checkpoint mid-lap, restore into a
  // fresh queue, and the remaining drain order must match the original
  // exactly — including the same-bucket different-lap entries.
  sim::CalendarQueue<std::uint64_t> q(2, 4);
  std::uint64_t next_tag = 0;
  for (std::uint64_t due : {2ull, 6ull, 3ull, 6ull, 10ull, 102ull, 7ull}) {
    q.schedule(due, due * 1000 + next_tag++);
  }
  std::vector<std::uint64_t> head;
  for (std::uint64_t r = 0; r <= 4; ++r) {
    q.drain_due(r, [&](std::uint64_t v) { head.push_back(v); });
  }
  // Mid-lap snapshot: rounds 5.. still hold 6, 6, 7, 10, 102.
  persist::Writer w(persist::BlobKind::kRaw);
  w.begin_section(persist::tag4("CALQ"));
  w(q);
  w.end_section();
  const auto blob = w.take();

  sim::CalendarQueue<std::uint64_t> restored;
  persist::Reader r(blob);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kRaw).ok);
  ASSERT_TRUE(r.open_section(persist::tag4("CALQ")).ok);
  r(restored);
  ASSERT_TRUE(r.close_section().ok);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.size(), q.size());
  EXPECT_EQ(restored.bucket_count(), q.bucket_count());

  std::vector<std::uint64_t> tail_orig, tail_restored;
  for (std::uint64_t rr = 5; rr <= 102; ++rr) {
    q.drain_due(rr, [&](std::uint64_t v) { tail_orig.push_back(v); });
    restored.drain_due(rr, [&](std::uint64_t v) { tail_restored.push_back(v); });
  }
  EXPECT_EQ(head, (std::vector<std::uint64_t>{2000, 3002}));
  EXPECT_EQ(tail_restored, tail_orig);
  // Same-due-round FIFO survived the round trip: the two events due at 6
  // come back in scheduling order.
  EXPECT_EQ(tail_orig[0], 6001u);
  EXPECT_EQ(tail_orig[1], 6003u);
  EXPECT_TRUE(restored.empty());
}

// --- job-level resume: mid-window, mid-hold ---------------------------------

Scenario windowed_scenario() {
  Scenario sc;
  sc.name = "persist-windows";
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.delay = 2;  // multi-round message delays AND D2 pacing holds
  sc.max_rounds = 100000;
  sc.churn_at(0, 2);       // recovery traffic to drop
  sc.loss(0, 40, 0.4);     // active loss window around the checkpoint
  sc.partition(10, 30);    // active partition window around the checkpoint
  return sc;
}

TEST(JobCheckpoint, ResumeInsideLossAndPartitionWindowIsByteIdentical) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = windowed_scenario();
  ASSERT_EQ(sc.validate(), "");
  const auto jobs = campaign::expand_jobs(sc);
  ASSERT_EQ(jobs.size(), 1u);

  // Reference run doubles as the snapshot donor: capture at timeline round
  // 15 — inside both fault windows — then keep running to completion.
  std::vector<std::uint8_t> snapshot;
  bool had_holds = false;
  campaign::JobRunner donor(sc, jobs[0]);
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.in_timeline() && jr.timeline_round() == 15) {
      had_holds = jr.engine().pending_holds() > 0;
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  ASSERT_TRUE(donor.finished());
  const auto want = result_bytes(donor.result());
  ASSERT_FALSE(snapshot.empty());
  // The checkpoint genuinely landed on pending multi-round work: held
  // self-messages (D2 pacing at delay 2) were in flight.
  EXPECT_TRUE(had_holds);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    campaign::JobRunner resumed(sc, jobs[0], workers);
    persist::Reader r(snapshot);
    ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
    ASSERT_TRUE(resumed.restore(r).ok);
    ASSERT_TRUE(r.expect_end().ok);
    resumed.run();
    const auto got = result_bytes(resumed.result());
    EXPECT_EQ(got, want) << "job resume diverged at " << workers << " workers";
  }

  // The dropped-message counters prove the windows were really active.
  campaign::JobRunner check(sc, jobs[0]);
  check.run();
  EXPECT_GT(check.result().messages_dropped, 0u);
}

TEST(JobCheckpoint, OracleStateRoundTrips) {
  // A stride-8 oracle accumulates pending hosts across rounds; resuming
  // must preserve the stride phase and counters so oracle_* report fields
  // match the uninterrupted run exactly.
  util::set_log_level(util::LogLevel::kError);
  Scenario sc;
  sc.name = "persist-oracle";
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 2;
  sc.max_rounds = 100000;
  sc.churn_at(0, 1);
  const auto jobs = campaign::expand_jobs(sc);
  const verify::OracleConfig cfg{.stride = 8};

  campaign::JobRunner donor(sc, jobs[0], 1, cfg);
  std::vector<std::uint8_t> snapshot;
  donor.run([&](campaign::JobRunner& jr) {
    if (snapshot.empty() && jr.engine_round() >= 100) {
      persist::Writer w(persist::BlobKind::kJob);
      jr.checkpoint(w);
      snapshot = w.take();
    }
    return true;
  });
  const auto want = result_bytes(donor.result());
  ASSERT_FALSE(snapshot.empty());

  campaign::JobRunner resumed(sc, jobs[0], 1, cfg);
  persist::Reader r(snapshot);
  ASSERT_TRUE(r.expect_header(persist::BlobKind::kJob).ok);
  ASSERT_TRUE(resumed.restore(r).ok);
  resumed.run();
  EXPECT_EQ(result_bytes(resumed.result()), want);

  // Oracle-configuration mismatch fails loudly instead of resuming wrong.
  campaign::JobRunner unarmed(sc, jobs[0]);
  persist::Reader r2(snapshot);
  ASSERT_TRUE(r2.expect_header(persist::BlobKind::kJob).ok);
  const auto s = unarmed.restore(r2);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("oracle"), std::string::npos) << s.error;
}

// --- campaign-level resume ---------------------------------------------------

Scenario small_campaign() {
  Scenario sc;
  sc.name = "persist-campaign";
  sc.n_guests = 64;
  sc.host_counts = {10};
  sc.families = {graph::Family::kRandomTree, graph::Family::kLine};
  sc.seed_lo = 1;
  sc.seed_hi = 2;
  sc.max_rounds = 100000;
  sc.churn_at(0, 1);
  sc.loss(5, 20, 0.3);
  return sc;
}

TEST(CampaignCheckpoint, CheckpointingDoesNotChangeReportBytes) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = small_campaign();
  const std::string straight = campaign::run_campaign(sc).to_json();

  campaign::RunOptions opts;
  opts.jobs = 2;
  opts.engine_workers = 2;
  opts.checkpoint_path = testing::TempDir() + "persist_campaign_ck.bin";
  opts.checkpoint_every = 100;
  const auto rep = campaign::run_campaign(sc, opts);
  EXPECT_FALSE(rep.halted);
  EXPECT_EQ(rep.to_json(), straight);

  // The finished checkpoint file resumes to the identical report without
  // re-running anything.
  campaign::RunOptions resume;
  resume.resume_path = opts.checkpoint_path;
  EXPECT_EQ(campaign::run_campaign(sc, resume).to_json(), straight);
}

TEST(CampaignCheckpoint, HaltMidRunThenResumeIsByteIdentical) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = small_campaign();
  const std::string straight = campaign::run_campaign(sc).to_json();

  campaign::RunOptions halt;
  halt.checkpoint_path = testing::TempDir() + "persist_campaign_halt.bin";
  halt.checkpoint_every = 75;
  halt.halt_after_checkpoints = 2;
  const auto partial = campaign::run_campaign(sc, halt);
  ASSERT_TRUE(partial.halted);  // genuinely interrupted mid-run

  campaign::RunOptions resume;
  resume.jobs = 2;
  resume.resume_path = halt.checkpoint_path;
  const auto rep = campaign::run_campaign(sc, resume);
  EXPECT_FALSE(rep.halted);
  EXPECT_EQ(rep.to_json(), straight);
}

TEST(CampaignCheckpoint, OracleArmedHaltMidJobThenResumeIsByteIdentical) {
  // The halted run abandons a job whose oracle is still attached to its
  // engine (the runner must tear both down in order), and the resumed job
  // restores the oracle's pending set, stride phase and counters.
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = small_campaign();
  campaign::RunOptions straight_opts;
  straight_opts.oracle = verify::OracleConfig{.stride = 4, .hard_fail = false};
  const std::string straight =
      campaign::run_campaign(sc, straight_opts).to_json();
  ASSERT_NE(straight.find("\"oracle\""), std::string::npos);

  campaign::RunOptions halt = straight_opts;
  halt.checkpoint_path = testing::TempDir() + "persist_campaign_oracle.bin";
  halt.checkpoint_every = 75;
  halt.halt_after_checkpoints = 2;
  ASSERT_TRUE(campaign::run_campaign(sc, halt).halted);
  std::vector<campaign::JobCheckpoint> states;
  ASSERT_TRUE(
      campaign::read_campaign_checkpoint(halt.checkpoint_path, sc, states).ok);
  EXPECT_TRUE(std::any_of(states.begin(), states.end(), [](const auto& j) {
    return j.state == campaign::JobCheckpoint::State::kInProgress;
  })) << "the halt did not land mid-job";

  campaign::RunOptions resume = straight_opts;
  resume.jobs = 2;
  resume.resume_path = halt.checkpoint_path;
  const auto rep = campaign::run_campaign(sc, resume);
  EXPECT_FALSE(rep.halted);
  EXPECT_EQ(rep.to_json(), straight);
}

TEST(CampaignCheckpoint, StaleScenarioIsRejected) {
  util::set_log_level(util::LogLevel::kError);
  const Scenario sc = small_campaign();
  const std::string path = testing::TempDir() + "persist_campaign_stale.bin";
  std::vector<campaign::JobCheckpoint> states(sc.num_jobs());
  ASSERT_TRUE(campaign::write_campaign_checkpoint(path, sc, states).ok);

  Scenario other = sc;
  other.max_rounds += 1;  // any drift in the recipe counts as stale
  std::vector<campaign::JobCheckpoint> out;
  const auto s = campaign::read_campaign_checkpoint(path, other, out);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("different scenario"), std::string::npos) << s.error;
}

// --- fuzz resume -------------------------------------------------------------

TEST(FuzzResume, InterruptedBudgetReplaysTheExactRemainingCases) {
  util::set_log_level(util::LogLevel::kError);
  verify::FuzzOptions straight;
  straight.seed = 7;
  straight.budget = 12;
  const std::string want = verify::run_fuzz(straight).to_text();

  // "Interrupt at case 5": run a 5-case budget with checkpointing on, then
  // resume the full budget from the file (extends the PR 4 budget-extension
  // prefix property to a cross-process boundary).
  const std::string path = testing::TempDir() + "persist_fuzz_ck.bin";
  verify::FuzzOptions head = straight;
  head.budget = 5;
  head.checkpoint_path = path;
  (void)verify::run_fuzz(head);

  verify::FuzzResume rs;
  ASSERT_TRUE(verify::read_fuzz_checkpoint(path, straight.seed, rs).ok);
  EXPECT_EQ(rs.next_case, 5u);

  verify::FuzzOptions tail = straight;
  tail.resume_path = path;
  EXPECT_EQ(verify::run_fuzz(tail).to_text(), want);
}

TEST(FuzzResume, SeedMismatchIsRejected) {
  util::set_log_level(util::LogLevel::kError);
  const std::string path = testing::TempDir() + "persist_fuzz_seed.bin";
  verify::FuzzOptions opt;
  opt.seed = 3;
  opt.budget = 2;
  opt.checkpoint_path = path;
  (void)verify::run_fuzz(opt);
  verify::FuzzResume rs;
  const auto s = verify::read_fuzz_checkpoint(path, 4, rs);
  ASSERT_FALSE(s.ok);
  EXPECT_NE(s.error.find("seed"), std::string::npos) << s.error;
}

// --- windowed time-travel minimization ---------------------------------------

TEST(MinimizeWindow, TimeTravelShrinkMatchesFullShrink) {
  util::set_log_level(util::LogLevel::kError);
  // The PR 4 frozen-churn repro: freeze the network, churn two hosts, and
  // the survivors' dangling structural references trip I4 — plus decoys
  // (fault, loss, partition) the minimizer must strip.
  Scenario sc;
  sc.name = "window-min";
  sc.n_guests = 64;
  sc.host_counts = {12};
  sc.families = {graph::Family::kRandomTree};
  sc.seed_lo = sc.seed_hi = 1;
  sc.max_rounds = 100000;
  sc.freeze_at(0).churn_at(1, 2);
  sc.fault_at(5, 1);
  sc.loss(2, 40, 0.5);
  sc.partition(10, 30);
  const auto jobs = campaign::expand_jobs(sc);
  const verify::FailureSignature sig{
      verify::FailureSignature::Kind::kOracleViolation, "I4"};

  const auto full = verify::minimize(sc, jobs[0], sig, {});
  ASSERT_EQ(full.replay.oracle_violation.substr(0, 2), "I4");
  EXPECT_EQ(full.windowed_replays, 0u);  // window off: every replay is full

  verify::MinimizeOptions wopt;
  wopt.window = 64;
  const auto windowed = verify::minimize(sc, jobs[0], sig, wopt);
  // Same minimized scenario, reached with time-travel replays standing in
  // for full ones.
  EXPECT_EQ(windowed.scenario, full.scenario);
  EXPECT_GT(windowed.windowed_replays, 0u);
  EXPECT_LT(windowed.full_replays, full.full_replays);
  EXPECT_EQ(result_bytes(windowed.replay), result_bytes(full.replay));
}

}  // namespace
}  // namespace chs
