#include "android/package_manager.h"

namespace mopdroid {

bool PackageManager::Install(int uid, const std::string& package, const std::string& label) {
  if (by_uid_.count(uid) > 0 || by_name_.count(package) > 0) {
    return false;
  }
  by_uid_[uid] = PackageInfo{uid, package, label};
  by_name_[package] = uid;
  return true;
}

void PackageManager::Uninstall(int uid) {
  auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) {
    return;
  }
  by_name_.erase(it->second.package);
  by_uid_.erase(it);
}

std::optional<PackageInfo> PackageManager::GetPackageForUid(int uid) const {
  auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<PackageInfo> PackageManager::GetPackageByName(const std::string& package) const {
  auto it = by_name_.find(package);
  if (it == by_name_.end()) {
    return std::nullopt;
  }
  return GetPackageForUid(it->second);
}

}  // namespace mopdroid
