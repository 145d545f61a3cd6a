// Fixture: suppressed direct writes lint clean.
struct Env;
struct FileStore;

int Save(Env* env) {
  // MMMSA(direct-env-write): fixture writes a debug dump, not a save blob
  int s = env->WriteFile("blob", "payload");
  if (s != 0) return s;
  // MMMSA(direct-env-write): fixture appends outside the commit protocol
  s = env->AppendToFile("manifest", "entry");
  return s;
}

int SaveBlobs(FileStore* files) {
  // MMMSA(direct-env-write): fixture writes a scratch blob, not a save
  int s = files->Put("blob", "payload");
  if (s != 0) return s;
  // MMMSA(direct-env-write): fixture appends to a scratch log
  return files->Append("log", "entry");
}
