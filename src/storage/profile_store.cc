#include "storage/profile_store.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <utility>

#include "storage/profile_io.h"
#include "util/metrics.h"

namespace ctxpref::storage {

namespace fs = std::filesystem;

namespace {

/// Serving-layer metrics (docs/observability.md). The live-snapshot
/// gauge is maintained by `ProfileSnapshot`'s ctor/dtor so it counts
/// every snapshot still pinned anywhere, not just the current ones.
struct ServingMetrics {
  Counter& swaps;
  Gauge& live_snapshots;
  Gauge& snapshot_age;
  Gauge& users;

  static ServingMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static ServingMetrics* m = new ServingMetrics{
        reg.GetCounter("ctxpref_profile_swaps_total",
                       "Profile snapshots published (create + update + "
                       "reload)"),
        reg.GetGauge("ctxpref_profile_live_snapshots",
                     "ProfileSnapshot objects alive (current + pinned)"),
        reg.GetGauge("ctxpref_profile_snapshot_age_ns",
                     "Serving age of the snapshot most recently replaced "
                     "(publish-to-replacement, ns)"),
        reg.GetGauge("ctxpref_profile_store_users",
                     "Users currently in the ProfileStore"),
    };
    return *m;
  }
};

}  // namespace

ProfileSnapshot::ProfileSnapshot(std::string user_id, uint64_t serving_version,
                                 uint64_t created_version,
                                 std::shared_ptr<const Profile> profile,
                                 std::shared_ptr<const ProfileTree> tree,
                                 std::shared_ptr<const FlatProfileTree> flat)
    : user_id_(std::move(user_id)),
      serving_version_(serving_version),
      created_version_(created_version),
      profile_(std::move(profile)),
      tree_(std::move(tree)),
      flat_(std::move(flat)),
      publish_nanos_(MonotonicNanos()) {
  assert(flat_ != nullptr);
  ServingMetrics::Get().live_snapshots.Add(1);
}

ProfileSnapshot::~ProfileSnapshot() {
  ServingMetrics::Get().live_snapshots.Add(-1);
}

ProfileStore::ProfileStore(EnvironmentPtr env) : env_(std::move(env)) {}

ProfileStore::~ProfileStore() {
  if (!users_.empty()) {
    ServingMetrics::Get().users.Add(-static_cast<int64_t>(users_.size()));
  }
}

ProfileStore::ProfileStore(ProfileStore&& other) noexcept
    : env_(std::move(other.env_)), users_(std::move(other.users_)) {
  version_counter_.store(other.version_counter_.load());
  cache_.store(other.cache_.load());
  other.users_.clear();
  other.cache_.store(nullptr);
}

ProfileStore& ProfileStore::operator=(ProfileStore&& other) noexcept {
  if (this == &other) return *this;
  if (!users_.empty()) {
    ServingMetrics::Get().users.Add(-static_cast<int64_t>(users_.size()));
  }
  env_ = std::move(other.env_);
  users_ = std::move(other.users_);
  version_counter_.store(other.version_counter_.load());
  cache_.store(other.cache_.load());
  other.users_.clear();
  other.cache_.store(nullptr);
  return *this;
}

Status ProfileStore::ValidateUserId(const std::string& user_id) {
  if (user_id.empty()) {
    return Status::InvalidArgument("empty user id");
  }
  if (user_id == "." || user_id == ".." ||
      user_id.find('/') != std::string::npos ||
      user_id.find('\\') != std::string::npos) {
    return Status::InvalidArgument("user id '" + user_id +
                                   "' cannot name a file");
  }
  return Status::OK();
}

size_t ProfileStore::size() const {
  util::ReaderLock lock(users_mu_);
  return users_.size();
}

Status ProfileStore::BuildAndPublish(User& user, const std::string& user_id,
                                     Profile profile) {
  // Build the tree off to the side: readers keep serving the current
  // snapshot through any build failure.
  StatusOr<ProfileTree> tree = ProfileTree::Build(profile);
  if (!tree.ok()) return tree.status();
  auto tree_ptr = std::make_shared<const ProfileTree>(std::move(*tree));
  // Flatten into the read-optimized arena while still off to the side
  // — publish cost, not query cost. Serving resolves only on the
  // arena; the pointer tree stays in the snapshot as the reference form
  // (the paper's size model and the test oracle read it).
  auto flat = std::make_shared<const FlatProfileTree>(
      FlatProfileTree::Build(*tree_ptr));
  const uint64_t version =
      version_counter_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (user.created_version == 0) user.created_version = version;
  auto snapshot = std::make_shared<const ProfileSnapshot>(
      user_id, version, user.created_version,
      std::make_shared<const Profile>(std::move(profile)),
      std::move(tree_ptr), std::move(flat));
  SnapshotPtr old = user.Swap(std::move(snapshot));
  ServingMetrics& metrics = ServingMetrics::Get();
  metrics.swaps.Increment();
  if (old != nullptr) {
    metrics.snapshot_age.Set(
        static_cast<int64_t>(MonotonicNanos() - old->publish_nanos()));
  }
  // Eager invalidation: entries computed from the retired snapshot are
  // dropped now rather than lingering until touched. A lookup racing
  // ahead cannot be served stale data either way: entries are
  // version-tagged and the new serving version never equals the old.
  // In retain-stale mode the old entries are deliberately KEPT: they
  // are the degradation ladder's bounded-staleness rung (version tags
  // keep fresh serving correct, LRU bounds the memory). A *removed*
  // user is still invalidated unconditionally — see RemoveUser.
  if (ContextQueryTree* cache = cache_.load(std::memory_order_acquire)) {
    if (!cache->retain_stale()) cache->InvalidateUser(user_id);
  }
  return Status::OK();
}

Status ProfileStore::CreateUser(const std::string& user_id) {
  return CreateUser(user_id, Profile(env_));
}

Status ProfileStore::CreateUser(const std::string& user_id, Profile initial) {
  CTXPREF_RETURN_IF_ERROR(ValidateUserId(user_id));
  if (&initial.env() != env_.get()) {
    return Status::InvalidArgument(
        "profile for user '" + user_id +
        "' was built over a different context environment");
  }
  util::WriterLock lock(users_mu_);
  auto [it, inserted] = users_.try_emplace(user_id);
  if (!inserted) {
    return Status::AlreadyExists("user '" + user_id + "' already exists");
  }
  it->second = std::make_unique<User>();
  User& user = *it->second;
  Status published;
  {
    // Uncontended (the exclusive map lock above hides the new user),
    // taken so BuildAndPublish has one uniform writer-lock contract.
    util::MutexLock write_lock(user.write_mu);
    published = BuildAndPublish(user, user_id, std::move(initial));
  }
  if (!published.ok()) {
    users_.erase(it);  // Creation is all-or-nothing.
    return published;
  }
  ServingMetrics::Get().users.Add(1);
  return Status::OK();
}

StatusOr<SnapshotPtr> ProfileStore::GetSnapshot(
    const std::string& user_id) const {
  util::ReaderLock lock(users_mu_);
  auto it = users_.find(user_id);
  if (it == users_.end()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  return it->second->Pin();
}

StatusOr<const Profile*> ProfileStore::GetProfile(
    const std::string& user_id) const {
  StatusOr<SnapshotPtr> snapshot = GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  // The store keeps the current snapshot alive until the next publish,
  // so handing out the raw pointer honors the documented lifetime.
  return &(*snapshot)->profile();
}

StatusOr<const ProfileTree*> ProfileStore::GetTree(
    const std::string& user_id) const {
  StatusOr<SnapshotPtr> snapshot = GetSnapshot(user_id);
  if (!snapshot.ok()) return snapshot.status();
  return &(*snapshot)->tree();
}

Status ProfileStore::UpdateUser(const std::string& user_id,
                                const std::function<Status(Profile&)>& edit) {
  util::ReaderLock lock(users_mu_);
  // as_const: the shared map lock licenses reads only, so go through
  // the const find (the User itself is guarded by its own locks).
  auto it = std::as_const(users_).find(user_id);
  if (it == users_.cend()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  User& user = *it->second;
  util::MutexLock write_lock(user.write_mu);
  // Copy-on-write: mutate a private copy; readers keep the current
  // snapshot until the publish below.
  SnapshotPtr current = user.Pin();
  Profile draft = current->profile();
  CTXPREF_RETURN_IF_ERROR(edit(draft));
  return BuildAndPublish(user, user_id, std::move(draft));
}

Status ProfileStore::PublishProfile(const std::string& user_id,
                                    Profile profile) {
  if (&profile.env() != env_.get()) {
    return Status::InvalidArgument(
        "profile for user '" + user_id +
        "' was built over a different context environment");
  }
  util::ReaderLock lock(users_mu_);
  auto it = std::as_const(users_).find(user_id);
  if (it == users_.cend()) {
    return Status::NotFound("no user '" + user_id + "'");
  }
  User& user = *it->second;
  util::MutexLock write_lock(user.write_mu);
  return BuildAndPublish(user, user_id, std::move(profile));
}

Status ProfileStore::ReloadUser(const std::string& user_id,
                                const std::string& dir) {
  // Parse fully before touching the live snapshot: any Load error
  // returns here with readers unaffected.
  StatusOr<Profile> loaded =
      ReadProfileFile(env_, dir + "/" + user_id + ".profile");
  if (!loaded.ok()) return loaded.status();
  return PublishProfile(user_id, std::move(*loaded));
}

Status ProfileStore::RemoveUser(const std::string& user_id) {
  {
    util::WriterLock lock(users_mu_);
    if (users_.erase(user_id) == 0) {
      return Status::NotFound("no user '" + user_id + "'");
    }
  }
  ServingMetrics::Get().users.Add(-1);
  // Drop the removed user's cached results. This is hygiene, not
  // correctness: a pinned reader may still Put an entry of the removed
  // incarnation after this runs (and unattached caches never see the
  // removal), but a later user with the same id gets fresh serving
  // versions for exact hits, and a `created_version()` that bounds the
  // stale rung's reach above every entry of the removed incarnation.
  if (ContextQueryTree* cache = cache_.load(std::memory_order_acquire)) {
    cache->InvalidateUser(user_id);
  }
  return Status::OK();
}

std::vector<std::string> ProfileStore::UserIds() const {
  util::ReaderLock lock(users_mu_);
  std::vector<std::string> out;
  out.reserve(users_.size());
  for (const auto& [id, user] : users_) out.push_back(id);
  return out;
}

Status ProfileStore::SaveAll(const std::string& dir) const {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::InvalidArgument("'" + dir + "' is not a directory");
  }
  // Snapshot the id list, then save each user's pinned snapshot without
  // holding the map lock across file I/O.
  for (const std::string& id : UserIds()) {
    StatusOr<SnapshotPtr> snapshot = GetSnapshot(id);
    if (!snapshot.ok()) continue;  // Removed concurrently; skip.
    CTXPREF_RETURN_IF_ERROR(WriteProfileFile((*snapshot)->profile(),
                                             dir + "/" + id + ".profile"));
  }
  return Status::OK();
}

StatusOr<ProfileStore> ProfileStore::LoadDir(EnvironmentPtr env,
                                             const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("'" + dir + "' is not a directory");
  }
  ProfileStore store(env);
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".profile") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    return Status::Internal("error listing '" + dir + "': " + ec.message());
  }
  std::sort(files.begin(), files.end());  // Deterministic load order.
  for (const fs::path& file : files) {
    StatusOr<Profile> profile = ReadProfileFile(env, file.string());
    if (!profile.ok()) return profile.status();
    CTXPREF_RETURN_IF_ERROR(
        store.CreateUser(file.stem().string(), std::move(*profile)));
  }
  return store;
}

}  // namespace ctxpref::storage
