// Fixture: suppressed chunk deletes lint clean; deleting a non-chunk blob
// never matches in the first place.
struct FileStore;

int Gc(FileStore* store, const char* hex) {
  // MMMSA(chunk-delete): fixture repairs a corrupt index. MMMSA(journal-path): the repair runs outside the journal
  int s = store->Delete(ChunkBlobName(hex));
  if (s != 0) return s;
  return store->Delete("set-000001.params.bin");
}
